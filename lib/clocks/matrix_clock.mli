(** Matrix clocks: each process's best knowledge of every group member's
    vector clock. Row [i] is the vector clock this process believes member
    [i] has observed.

    Used for message-stability detection: a multicast numbered [k] from
    sender [s] is stable once every row's component [s] is [>= k] — i.e.
    every member is known to have received it (Section 5's "stable
    messages").

    Per-column minima are cached and maintained incrementally on every row
    update, so {!min_component} and {!stable} are O(1) and a caller can
    react to exactly the columns whose minimum advanced
    ({!update_row_tracked}) instead of rescanning its whole unstable
    buffer. *)

type t

val create : int -> t

val row : t -> int -> Vector_clock.t
(** The live row (not a copy). Read-only for callers: mutating it directly
    would bypass the cached column minima. *)

val update_row : t -> int -> Vector_clock.t -> unit
(** Merge new knowledge about a member's vector clock. *)

val update_row_tracked :
  t -> int -> Vector_clock.t -> advanced:(int -> unit) -> unit
(** Like {!update_row}, additionally calling [advanced s] once for every
    column [s] whose cached minimum increased as a result of this merge
    (after the cache reflects the new minimum). Stale or equal components
    never fire the callback. *)

val update_cell_tracked :
  t -> int -> int -> seq:int -> advanced:(int -> unit) -> unit
(** [update_cell_tracked t i s ~seq ~advanced] advances row [i]'s component
    [s] to [seq] (if larger) — equivalent to {!update_row_tracked} with a
    vector equal to the row everywhere but [s], at O(1) instead of a
    full-row merge. The per-delivery fast path when a delivery is known to
    advance exactly one component. *)

val update_cell : t -> int -> int -> seq:int -> unit

val min_component : t -> int -> int
(** [min_component t s] is the highest multicast index from sender [s] known
    to be received by *all* members: messages up to this index are stable.
    O(1) — reads the maintained cache. *)

val stable : t -> sender:int -> seq:int -> bool
