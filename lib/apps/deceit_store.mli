(** A Deceit-style replicated store (Section 4.4): writes propagate by causal
    multicast; the client is acknowledged after [write_safety] (k) remote
    acknowledgements.

    k = 0 is fully asynchronous — and not durable: a write can be lost after
    a single failure. k = n-1 is synchronous update of all replicas, "just
    as with conventional RPC". The store exhibits the paper's asynchrony /
    durability trade-off and the primary-updater restriction (each key is
    written through one server at a time). *)

type config = {
  write_safety : int;  (** k: remote acks awaited before the client reply *)
  crash : (int * Sim_time.t) option;  (** crash server [i] at the given time *)
  out_of_band_writes : int;
      (** the client immediately re-issues that many of its writes through
          the {e next} server with a newer value — the two multicasts of one
          key are coupled only by the client's own program order, the
          paper's Fig. 1 out-of-band request. 0 (the default) keeps the
          strict primary-updater discipline. *)
}

val default_config : config

type result = {
  writes_attempted : int;
  writes_acked : int;
  ack_latency_mean_us : float;
  ack_latency_p99_us : float;
  messages_per_write : float;
  acked_lost_at_survivor : int;
      (** writes acknowledged to the client yet missing from some surviving
          replica at the end — the durability gap *)
  replicas_consistent : bool;  (** all surviving replicas hold equal content *)
  view_changes : int;
}

val run : ?recorder:Repro_analyze.Exec.Recorder.t -> config -> result
(** With [recorder], every Update multicast and delivery is recorded, and
    consecutive writes of one key (including failover re-issues) get a
    channel edge labelled "client write order" — the primary-updater
    ordering lives at the client, not in the transport. *)
