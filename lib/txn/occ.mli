(** Optimistic concurrency control (Section 4.3): "transactions are
    globally ordered at commit time, with a transaction being aborted if it
    conflicts with an earlier transaction... a simple ordering mechanism
    provides a globally consistent ordering without using or needing
    CATOCS."

    Backward validation against a monotone commit clock: a transaction
    conflicts iff some key it accessed was written by a transaction that
    committed after it started. *)

type txid = int

type 'v t
type 'v tx

val create : unit -> 'v t

val begin_tx : 'v t -> 'v tx

val read : 'v t -> 'v tx -> key:string -> 'v option
(** Own uncommitted writes are visible. *)

val write : 'v tx -> key:string -> 'v -> unit

val commit : 'v t -> 'v tx -> (int, string list) result
(** [Ok stamp] with the commit-clock position, or [Error keys] listing the
    conflicting keys; an aborted transaction's writes are discarded. *)

val store : 'v t -> 'v Kv_store.t
(** The committed state. *)

val commits : 'v t -> int
val aborts : 'v t -> int
