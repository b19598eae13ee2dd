(** A versioned key-value store: the state substrate for the transactional
    and replicated-data applications. Every write bumps the key's version —
    the "logical clock on the database state" of Section 3. *)

type 'v t

val create : unit -> 'v t

val put : 'v t -> key:string -> 'v -> int
(** Returns the new version of the key. *)

val get : 'v t -> key:string -> 'v option
val version : 'v t -> key:string -> int
val delete : 'v t -> key:string -> unit
val mem : 'v t -> key:string -> bool

val equal_content : 'v t -> 'v t -> bool
(** Same keys and values (versions ignored — replicas may count
    differently). *)
