(** Matrix-clock representation dispatch: the dense {!Matrix_clock} or the
    row-interning {!Sparse_matrix_clock} behind one type, selected by
    {!Config.stability_clock}. Both representations report identical minima
    and identical [advanced] callbacks on any update sequence — the sparse
    one at O(group) marginal words instead of O(group{^ 2}). *)

type impl = Dense | Sparse

type t

val create : ?impl:impl -> int -> t
(** [impl] defaults to [Dense]. *)

val update_row : ?live:bool -> t -> int -> Vector_clock.t -> unit
(** Merge new knowledge about a member's vector clock. Pass [~live:true]
    when [vc] is caller-owned mutable storage (e.g. the caller's running
    clock): the sparse representation then merges by value instead of
    adopting the array by reference (see
    {!Sparse_matrix_clock.update_row}); dense ignores the flag. *)

val update_row_tracked :
  ?live:bool -> t -> int -> Vector_clock.t -> advanced:(int -> unit) -> unit
(** Like {!update_row}, calling [advanced s] once per column [s] whose
    cached minimum increased (after the cache reflects the new minimum). *)

val update_cell_tracked :
  t -> int -> int -> seq:int -> advanced:(int -> unit) -> unit
(** Advance row [i]'s component [s] to [seq] (if larger): the O(1)
    per-delivery fast path, equivalent to {!update_row_tracked} with a
    vector differing from the row only at [s]. No [live] flag — an integer
    never aliases row storage. *)

val update_cell : t -> int -> int -> seq:int -> unit

val min_component : t -> int -> int
(** O(1) cached per-column minimum (see {!Matrix_clock.min_component}). *)

val stable : t -> sender:int -> seq:int -> bool

val sparse : t -> Sparse_matrix_clock.t option
(** The sparse representation, for probes of its row interning; [None]
    when dense. *)
