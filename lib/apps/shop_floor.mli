(** The shop-floor control example (Figure 2): unrecognised causality through
    a hidden channel.

    Two shop-floor-control (SFC) instances serve client requests against a
    {e shared database} — the hidden channel. Each instance multicasts the
    result of its update over the CATOCS group. Because the requests flowed
    through the database and not through the communication substrate, the
    two notifications are concurrent under happens-before, and causal (or
    total) multicast may deliver them to an observer in the wrong order:
    the observer ends up believing the lot is "started" after it was
    stopped.

    The state-level fix carries the database version in every notification;
    a versioned replica at the observer then converges to the database state
    regardless of delivery order. *)

type config = {
  seed : int64;
  trials : int;  (** lots processed (one start + one stop each) *)
  request_gap : Sim_time.t;
      (** how long after "start" the "stop" request is issued *)
  latency : Net.latency;
  causal_impl : Repro_catocs.Config.causal_impl;
      (** the anomaly is implementation-independent: it shows under BSS and
          PC-broadcast alike, because the channel is outside the transport *)
}

val default_config : config

type result = {
  trials : int;
  naive_anomalies : int;
      (** trials where the observer's last-received notification disagrees
          with the final database state *)
  versioned_anomalies : int;
      (** same check using the versioned replica (expected: 0) *)
  stale_rejected : int;  (** reordered notifications the replica discarded *)
  messages_sent : int;
}

val run :
  ?obs:Repro_obs.Log.t ->
  ?recorder:Repro_analyze.Exec.Recorder.t ->
  config ->
  result
(** With [recorder], every Notify multicast (labelled
    [notify <action> <lot> v<version>]), its deliveries, the database
    writes, and one channel edge per consecutive same-lot version pair
    (labelled "shared database") are recorded for the causal sanitizer and
    the Figure 2 event diagram ({!Repro_analyze.Exec.render_diagram}).
    [obs] attaches a telemetry log to the CATOCS group (the database and
    client endpoints sit outside the group and emit nothing). *)
