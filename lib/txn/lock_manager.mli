(** Two-phase-locking lock manager with shared/exclusive modes, FIFO wait
    queues and wait-for-graph extraction.

    The paper's Section 4.3: "with pessimistic transaction management, the
    ordering of transactions is dictated by 2-phase locking on the data" —
    locks, not message ordering, provide the serialisation CATOCS cannot
    ("can't say together"). *)

type txid = int
type mode = Shared | Exclusive

type outcome =
  | Granted
  | Waiting
  | Deadlock of txid list
      (** granting would close a wait-for cycle; the cycle is returned and
          the request is {e not} enqueued *)

type t

val create : unit -> t

val acquire : t -> txid -> key:string -> mode -> outcome
(** Re-acquiring a held lock is granted; a Shared->Exclusive upgrade is
    granted when the transaction is the sole holder, otherwise it waits. *)

val release_all : t -> txid -> txid list
(** End of transaction (2PL release phase): releases every lock and wait
    entry of the transaction; returns transactions whose requests became
    granted, in grant order. *)

val holds : t -> txid -> key:string -> mode option
val waiting : t -> txid -> bool
val wait_for : t -> Wait_for_graph.t
(** Snapshot of the current wait-for relation. *)

