(** Client-observed operation histories and a linearizability checker.

    The paper's Section 3 lists linearizability among the semantic ordering
    constraints that happens-before cannot express; this module gives the
    repository a way to {e check} it. Operations are reads and writes on
    named registers with real-time invocation/completion intervals; the
    checker searches for a legal sequential witness (Wing & Gong style,
    with per-key locality: registers are independent, so each key is
    checked alone). Intended for test-sized histories (tens of operations
    per key). *)

type op =
  | Write of { key : string; value : int }
  | Read of { key : string; result : int option }

type event = {
  client : int;
  op : op;
  invoked_at : Sim_time.t;
  completed_at : Sim_time.t;
}

type t

val create : unit -> t

val record :
  t -> client:int -> op:op -> invoked_at:Sim_time.t -> completed_at:Sim_time.t -> unit
(** Completion must not precede invocation. *)

val length : t -> int

val linearizable : t -> bool
(** True iff some linearisation of every key's events respects both the
    real-time order (an operation that completed before another was invoked
    must precede it) and register semantics (a read returns the most recent
    preceding write's value, or [None] if there is none). *)

val first_violation : t -> string option
(** A human-readable description of one non-linearizable key, or [None]. *)
