(** Lamport logical clocks (Lamport, CACM 1978).

    A scalar clock per process; [tick] on local/send events and [observe] on
    receive establish the happens-before consistent ordering. Total order is
    obtained by tie-breaking on process id. *)

type t

val create : unit -> t
val value : t -> int

val tick : t -> int
(** Advance for a local or send event; returns the new value. *)

val observe : t -> int -> int
(** [observe t remote] merges a received timestamp:
    [max(local, remote) + 1]; returns the new value. *)

type stamp = { time : int; node : int }
(** Totally ordered timestamp: time, tie-broken by node id. *)

val stamp : t -> node:int -> stamp
(** Tick and produce a total-order stamp. *)

val compare_stamp : stamp -> stamp -> int
