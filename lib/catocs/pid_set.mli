(** Immutable sets of process ids.

    The view-change and flush paths test membership against survivor /
    failed / acknowledged sets repeatedly; as lists those scans were
    O(members) each (quadratic per round). This is a thin facade over
    [Set.Make (Int)] exposing just what the stack needs. *)

type t

val empty : t
val mem : int -> t -> bool
val add : int -> t -> t
val remove : int -> t -> t
val cardinal : t -> int
val of_list : int list -> t
