(** E14 — Section 2: atomic but not durable.

    "A process can send a message to its process group, receive and act on
    the message locally and then fail, without any other members receiving
    the message." We multicast an update that reaches only [k] remote
    members before the sender crashes and ask whether the surviving group
    ends up with it — the Deceit write-safety-level trade-off — and compare
    the transactional behaviour (a 2PC coordinator crash simply aborts:
    no survivor diverges and the client was never acknowledged). *)

type point = {
  scheme : string;
  k : int;  (** remote members reached before the crash *)
  trials : int;
  survivors_have_update : int;
      (** trials where every survivor delivered the update *)
  sender_diverged : int;
      (** trials where the crashed sender had applied an update the
          survivors never saw *)
  survivor_partial : int;
      (** trials where some but not all survivors saw it (atomicity
          violation — expected 0: the flush re-supplies) *)
}

val sweep : ?group_size:int -> ?trials:int -> ?seed:int64 -> unit -> point list

val run : unit -> Table.t
