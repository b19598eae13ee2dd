(** Wait-for graphs and cycle (deadlock) detection.

    Central to the paper's Section 4.2 argument: under 2-phase locking, a
    set of transactions is deadlocked iff the wait-for edges form a cycle,
    each edge having held at some time — the property is insensitive to the
    order in which edges are learned, so a plain (unordered) multicast of
    local graphs suffices and no CATOCS is needed, and no false deadlocks
    are reported. *)

type node = int

type t

val create : unit -> t

val add_edge : t -> waiter:node -> holder:node -> unit
val remove_edge : t -> waiter:node -> holder:node -> unit
val remove_node : t -> node -> unit

val merge_into : t -> t -> unit
(** [merge_into dst src] adds all of [src]'s edges (set union). *)

val edges : t -> (node * node) list
(** Sorted, deduplicated. *)

val edge_count : t -> int

val find_cycle : t -> node list option
(** Some cycle as a node list (each waits for the next, last waits for the
    first), or [None]. Deterministic: the discovered cycle depends only on
    graph content. *)
