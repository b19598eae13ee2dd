(** The fire-alarm example (Figure 3): unrecognised causality through an
    external channel.

    A furnace process P detects a fire and multicasts "fire"; a monitor R
    observes (through the physical world — the external channel) that the
    fire went out and multicasts "fire out"; the fire then restarts and P
    multicasts "fire" again. The second "fire" and the "fire out" are
    concurrent under happens-before, so causal — or total — multicast may
    deliver "fire out" last at an observer Q, which then wrongly concludes
    the fire is out.

    The state-level fix is a real-time timestamp on each report: the
    observer keeps the freshest report, and clock-synchronisation accuracy
    (sub-millisecond) is far finer than physical event spacing. *)

type config = {
  seed : int64;
  trials : int;
  event_gap : Sim_time.t;  (** physical time between fire / out / fire *)
  latency : Net.latency;
  ordering : Repro_catocs.Config.ordering;
      (** the paper notes the anomaly survives total ordering too *)
  causal_impl : Repro_catocs.Config.causal_impl;
      (** and it survives a change of causal implementation: the external
          channel is invisible to BSS and PC-broadcast alike *)
}

val default_config : config

type result = {
  trials : int;
  naive_anomalies : int;
      (** trials where Q's last-received report says the fire is out *)
  timestamped_anomalies : int;  (** freshest-timestamp view (expected: 0) *)
}

val run :
  ?obs:Repro_obs.Log.t ->
  ?recorder:Repro_analyze.Exec.Recorder.t ->
  config ->
  result
(** With [recorder], every report multicast (labelled [FIRE(t<trial>)] or
    [fire-out(t<trial>)]) and delivery is recorded, and successive reports
    of one trial get a channel edge labelled "physical world" — the
    external channel the transport cannot see. The recording feeds the
    causal sanitizer and the Figure 3 event diagram
    ({!Repro_analyze.Exec.render_diagram}). [obs] attaches a telemetry log
    to the group. *)
