(** Process-group views.

    A view is the agreed membership at a point in time; ranks are indexes
    into the (sorted) member array and index vector-clock components. *)

type view = { view_id : int; members : Engine.pid array }

val make_view : view_id:int -> Engine.pid list -> view
(** Members are sorted so that all processes derive identical ranks. *)

val size : view -> int
val find_rank : view -> Engine.pid -> int
(** The rank of [pid], or [-1] when it is not a member. Allocates
    nothing: the per-packet lookup of the receive path. *)

val rank_of : view -> Engine.pid -> int option
val rank_of_exn : view -> Engine.pid -> int
val member : view -> int -> Engine.pid
val mem : view -> Engine.pid -> bool
val coordinator : view -> Engine.pid
(** Lowest-pid member: coordinates flush/view-change rounds. *)

val remove : view -> Engine.pid list -> new_view_id:int -> view
val pp : Format.formatter -> view -> unit
