(** Sparse matrix clock: observationally identical to {!Matrix_clock} —
    same merges, same cached per-column minima, same [advanced] callbacks
    in the same order — at O(group) marginal words per tracker instead of
    O(group{^ 2}).

    Rows {e intern} the immutable timestamp snapshots the protocol already
    allocates (on the structural wire, one gossip vector is shared by all
    its receivers; one BSS data timestamp by all its recipients): a row that is dominated by an
    incoming snapshot adopts it by reference and stores only an override
    for its own (diagonal) component, so the hot-path update — a data
    message advancing just the sender's sequence — touches one integer. A
    genuine mixture (snapshot partly behind the row, as when gossip races
    data on a reordering network) {e evicts} the row into private storage;
    a later dominating snapshot re-adopts.

    The differential battery ([test/test_sparse_clock.ml]) pins sparse ==
    dense on random update interleavings, and the bench's n=4096 sweep
    depends on the footprint (see {!Config.stability_clock}). *)

type t

val create : int -> t

val update_row : ?live:bool -> t -> int -> Vector_clock.t -> unit
(** Merge new knowledge about a member's vector clock. [live] (default
    false) marks [vc] as a caller-owned {e mutable} vector (e.g. the
    caller's own running clock): the row then never adopts it by reference
    — aliasing storage that keeps changing would invalidate the cached
    minima — and merges into private storage instead. Immutable snapshots
    (structural gossip vectors, data timestamps) should be passed without
    [live] so they can be interned; a decoded gossip vector, which the
    codec overwrites on its next decode, is live. *)

val update_row_tracked :
  ?live:bool -> t -> int -> Vector_clock.t -> advanced:(int -> unit) -> unit
(** Like {!update_row}, additionally calling [advanced s] once for every
    column [s] whose cached minimum increased — identical columns in
    identical order to {!Matrix_clock.update_row_tracked} on the same
    update sequence. *)

val update_cell_tracked :
  t -> int -> int -> seq:int -> advanced:(int -> unit) -> unit
(** [update_cell_tracked t i s ~seq ~advanced] advances row [i]'s component
    [s] to [seq] (if larger) — same observable behavior as
    {!update_row_tracked} with a vector differing from the row only at [s].
    Diagonal cells touch one integer; an off-diagonal advance evicts the
    row into private storage (as the live full-vector merge would). An
    integer never aliases the row, so there is no [live] flag. *)

val update_cell : t -> int -> int -> seq:int -> unit

val min_component : t -> int -> int
(** O(1) — reads the maintained cache (see {!Matrix_clock.min_component}). *)

val stable : t -> sender:int -> seq:int -> bool

val row_get : t -> int -> int -> int
(** [row_get t i s] is component [s] of row [i] (the dense
    [Vector_clock.get (row t i) s]). O(1). *)

val row_snapshot : t -> int -> Vector_clock.t
(** A fresh copy of row [i]'s effective value (O(group); for tests and
    printing). *)

val interned : t -> int
(** Snapshots adopted by reference since creation. *)

val materialized : t -> int
(** Rows evicted into private storage since creation. *)

val row_owned : t -> int -> bool
(** True while row [i] holds private (evicted) storage. *)

val row_base_is : t -> int -> Vector_clock.t -> bool
(** Physical-equality probe: is row [i]'s shared base exactly [vc]? (For
    interning unit tests.) *)

val chaos_overstate_minima : bool ref
(** Test hook: when set, [min_component]/[stable] report each column's
    {e maximum} and every component increase fires [advanced] — stability
    then releases messages not all members have seen, a corruption the
    checker must convict (see [test/test_check.ml]). *)
