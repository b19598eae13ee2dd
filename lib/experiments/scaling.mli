(** E6 — Section 5: CATOCS buffering growth with system size.

    A group of N members each multicasting at a fixed per-process rate; we
    measure the unstable-message buffer a single node must hold (Section
    5's claim: per-node buffering grows linearly in N, hence system-wide
    quadratically) and the size of the active causal graph. The growth
    exponents are fitted from the sweep.

    A run's protocol settings are one {!Repro_catocs.Config.t}, derived
    from {!config}:
    {[
      let pc =
        { (Config.with_causal_impl Config.Pc_causal Scaling.config) with
          Config.pc_overlay = Config.Pc_tree { fanout = 8 };
          track_graph = false; metrics = true }
      in
      Scaling.sweep ~sizes:[ 64 ] ~config:pc ()
    ]} *)

type point = {
  group_size : int;
  peak_node_unstable_msgs : int;  (** max over members *)
  peak_node_unstable_bytes : int;
  system_unstable_bytes : int;  (** sum of per-node peaks *)
  peak_graph_nodes : int;
  peak_graph_arcs : int;
  mean_delivery_delay_us : float;
  mean_transit_us : float;
      (** end-to-end send->deliver, including receiver queueing *)
  messages_total : int;
  deliveries_total : int;
      (** engine-level deliveries across the group, including control
          traffic (gossip, acks, overlay forwards) *)
  app_deliveries_total : int;
      (** application deliver-callback invocations across the group — the
          denominator for per-delivery metadata cost *)
  header_bytes_total : int;
      (** ordering metadata transmitted, summed over members: the quantity
          whose per-delivery mean is O(group) for BSS vector timestamps and
          O(1) for PC-broadcast *)
  forward_copies : int;
      (** PC-broadcast forward-on-first-delivery copies across the group
          (zero, like every registry-derived field below, unless the run
          was created with [~metrics:true]) *)
  encoded_wire_bytes : int;
      (** real frame bytes put on the wire — non-zero only under the
          [Encoded] wire format *)
  wire_packets : int;  (** packets sent, including control traffic *)
  delivery_p50_us : float;  (** send->deliver latency percentiles ... *)
  delivery_p99_us : float;
  delivery_p999_us : float;  (** ... over every application delivery *)
  stability_lag_p50_us : float;
      (** deliver->stable lag percentiles from the stability tracker's
          registry histogram *)
  stability_lag_p99_us : float;
  stability_lag_p999_us : float;
  registry_snapshot : Repro_obs.Registry.snapshot;
      (** the merged per-stack protocol-metrics snapshot the fields above
          are read from; empty without [~metrics:true] *)
}

val config : Repro_catocs.Config.t
(** The base the sweeps run: {!Repro_catocs.Config.default}, i.e. BSS
    causal ordering over bare links, 20 ms gossip, the dense stability
    clock, the [Structural] wire, graph tracking on and metrics off. A
    PC-broadcast run applies {!Repro_catocs.Config.with_causal_impl}, which
    upgrades the bare links to [Fifo_order]: PC's causality argument needs
    FIFO links, and this network reorders. *)

val measure_with_graph :
  ?engine_impl:Engine.impl ->
  ?obs:Repro_obs.Log.t ->
  ?processing_time:Sim_time.t ->
  ?duration:Sim_time.t ->
  ?config:Repro_catocs.Config.t ->
  seed:int64 ->
  int ->
  point
(** One measured run at group size [n] under [config] (default
    {!config}). With [obs], the group's stacks log lifecycle spans into it
    and every member's occupancy gauges (unstable msgs/bytes, queue depth,
    blocked count) are sampled every 10 ms — the source for the n=64
    scaling trace export. [engine_impl] (default [Sequential]) selects the
    engine strategy; [Parallel] rejects [obs] here and a graph-tracking
    [config] in {!Repro_catocs.Stack.create} (both are group-shared mutable
    state the lanes would race on), and [processing_time] must stay zero.
    [config.metrics] enables the per-stack protocol registries that feed
    the point's copy counters, wire totals and latency percentiles
    (registries are per-stack, so they stay parallel-safe; the merged
    snapshot is domain-count independent). *)

val sweep :
  ?sizes:int list ->
  ?seed:int64 ->
  ?engine_impl:Engine.impl ->
  ?processing_time:Sim_time.t ->
  ?duration:Sim_time.t ->
  ?config:Repro_catocs.Config.t ->
  unit ->
  point list
(** [measure_with_graph] at each size. Each member multicasts every 10 ms;
    [duration] bounds the send phase (default 1 simulated second). Large
    sweeps slow [config.gossip_period] to bound the n^2 gossip volume, and
    turn [config.track_graph] off to keep shared-graph bookkeeping out of
    throughput measurements. *)

val run : unit -> Table.t

val loaded_table : unit -> Table.t
(** The same sweep with a per-message receiver processing cost: delivery
    delay (the paper's T) grows with N, compounding the buffering. *)
