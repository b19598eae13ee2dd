(** Online summary statistics used by every experiment:
    mean/variance/min/max/percentiles. *)

module Summary : sig
  type t

  val reservoir_capacity : int
  (** Maximum raw samples retained for percentiles (1024). Count, mean,
      stddev, min, max and sum are exact regardless; beyond the cap the
      percentiles come from a uniform reservoir subsample (Vitter's
      Algorithm R), so memory stays bounded no matter how many samples an
      experiment adds. Sampling is driven by a fixed-seed {!Rng.t} per
      summary: results are a deterministic function of the [add]/[merge]
      call sequence. *)

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int

  val retained : t -> int
  (** Samples currently held in the reservoir:
      [min count reservoir_capacity]. *)

  val mean : t -> float
  val stddev : t -> float
  val min : t -> float
  val max : t -> float
  val percentile : t -> float -> float
  (** [percentile t p] with [p] in [\[0,1\]]; nearest-rank on the retained
      samples — exact while [count <= reservoir_capacity], an estimate with
      uniform-subsampling error beyond. Returns [nan] when empty. *)

  val sum : t -> float

  val merge : t -> t -> unit
  (** [merge acc other] folds [other] into [acc]. Count/mean/variance
      min/max/sum combine exactly (Chan et al.'s parallel moments update).
      The reservoirs concatenate exactly when the combined population fits
      under {!reservoir_capacity}; otherwise [acc]'s reservoir is refilled
      by sampling each slot's source in proportion to the true population
      sizes. [other] is not modified. *)

  val pp : Format.formatter -> t -> unit
end
