(** Bounded-memory log-bucketed latency histogram (HDR-histogram style).

    Values (microseconds, but any non-negative float works) are binned into
    16 linear sub-buckets per power-of-two octave, covering [1, 2^40) with
    one underflow bucket below 1.0 — 641 integer counters in a flat array,
    a few KB regardless of how many samples are added. Quantile estimates
    come back as the midpoint of the selected bucket, so their relative
    error is bounded by half a bucket width: {e at most 3.125%}. Exact
    count, sum, min and max are carried alongside, and [percentile t 0.0] /
    [percentile t 1.0] return the exact extremes.

    Histograms with different sample streams {!merge} by adding counters,
    which is what makes per-node distributions aggregatable into group
    totals without retaining samples (cf. [Stats.percentile], exact over
    a retained sample array). *)

type t

val create : unit -> t
val add : t -> float -> unit
(** Negative values are clamped into the underflow bucket. *)

val count : t -> int
val sum : t -> float

val min : t -> float
val max : t -> float
(** Exact observed extremes; [nan] when empty. *)

val percentile : t -> float -> float
(** [percentile t p] with [p] in [\[0,1\]]: nearest-rank over the bucket
    counts, returning the matched bucket's midpoint clamped to the exact
    observed [\[min, max\]]. Relative error <= 3.125%. [nan] when empty. *)

val merge : t -> t -> unit
(** [merge acc other] adds [other]'s counters (and count/sum/min/max) into
    [acc]; [other] is unchanged. *)

val buckets : t -> (float * float * int) list
(** Non-empty buckets as [(lower, upper, count)], ascending. *)

val max_relative_error : float
(** The 3.125% quantile error bound (1 / 32). *)
