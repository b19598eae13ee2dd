(** A HARP-style replicated store (Section 4.4): primary-copy, each write a
    transaction committed by two-phase commit across the availability list,
    write-ahead logged at every replica.

    The transactional comparator to {!Deceit_store}: synchronous update, but
    durable (the WAL survives crashes), with grouped atomic updates and the
    availability-list optimisation — a failed replica is dropped at commit
    so a single crash costs at most one aborted-and-retried write, not a
    stalled store. Clients fail over to the next server on timeout. *)

type result = {
  writes_attempted : int;
  writes_acked : int;
  ack_latency_mean_us : float;
  ack_latency_p99_us : float;
  messages_per_write : float;
  commit_aborts : int;  (** 2PC rounds that aborted (then retried) *)
  acked_lost_at_survivor : int;
      (** acked writes missing from a surviving replica's WAL replay
          (expected: 0 — this is what durability buys) *)
  replicas_consistent : bool;
}

val run : (int * Sim_time.t) option -> result
(** [run (Some (i, at))] crashes server [i] at [at]; [run None] runs a
    healthy store. *)
