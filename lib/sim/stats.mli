(** Summary statistics used by every experiment: an online count/mean/max
    accumulator, and an exact nearest-rank percentile over a sample array.
    Bounded-memory latency distributions live in [Repro_obs.Histo]. *)

module Summary : sig
  type t

  val create : unit -> t

  val add : t -> float -> unit
  (** Allocation-free: the moments are stored unboxed. *)

  val count : t -> int

  val mean : t -> float
  (** Welford's running mean; [nan] when empty. *)

  val max : t -> float
  (** [nan] when empty. *)
end

val percentile : float array -> float -> float
(** [percentile samples p] with [p] in [\[0,1\]]: the nearest-rank sample,
    rank [round (p * (n - 1))] in ascending order. Exact; [samples] is not
    modified. Returns [nan] when empty. *)
