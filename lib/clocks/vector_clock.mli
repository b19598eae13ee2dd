(** Vector clocks over a fixed-size process group.

    Used by CBCAST both as per-process state and as per-message timestamps.
    Index [i] counts multicasts initiated by group member [i]. *)

type t

type order = Before | After | Equal | Concurrent

val create : int -> t
(** [create n] is the zero vector for an [n]-member group. *)

val copy : t -> t
val size : t -> int
val get : t -> int -> int
val set : t -> int -> int -> unit

val tick : t -> int -> unit
(** [tick t i] increments component [i] (a send event at member [i]). *)

val copy_tick : t -> int -> t
(** [copy_tick t i] is [copy t] followed by [tick _ i] in a single pass:
    the immutable per-multicast timestamp snapshot, allocated once and
    shared by every recipient. *)

val merge_into : t -> t -> unit
(** [merge_into dst src] takes the componentwise maximum into [dst]. *)

val compare_causal : t -> t -> order
(** Causal (partial-order) comparison. [Before] means the first vector
    happens-before the second. *)

val leq : t -> t -> bool
(** Componentwise [<=]. *)

val equal : t -> t -> bool

val deliverable : sender:int -> msg:t -> local:t -> bool
(** The Birman-Schiper-Stephenson causal delivery condition: a message
    timestamped [msg] from [sender] is deliverable at a process with vector
    [local] iff [msg.(sender) = local.(sender) + 1] and
    [msg.(k) <= local.(k)] for all [k <> sender]. *)

val first_exceeding : t -> t -> from:int -> skip:int -> int
(** [first_exceeding a b ~from ~skip] is the first index [i >= from] other
    than [skip], within both clocks, where [a.(i) > b.(i)]; [-1] if none.
    With [a] a message stamp and [skip] its sender: the first dependency
    the clock [b] lacks. *)

val first_difference : t -> t -> from:int -> int
(** The first index [i >= from], within both clocks, where they differ;
    [-1] if none: one pass finds every component that moved. *)

val missing_dependencies : sender:int -> msg:t -> local:t -> (int * int) list
(** For diagnostics: components blocking delivery, as
    [(member, required_count)] pairs. *)

val encoded_size_bytes : t -> int
(** Size of the timestamp on the wire (4 bytes per component); used by the
    per-message overhead experiment. *)

val to_list : t -> int list
val of_list : int list -> t
val pp : Format.formatter -> t -> unit
