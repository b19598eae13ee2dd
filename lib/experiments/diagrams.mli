(** Event-diagram reproductions of the paper's figures, regenerated from
    actual protocol executions rather than drawn by hand: each figure run
    records its application-level execution ({!Repro_analyze.Exec.t}), and
    the diagram is {!Repro_analyze.Exec.render_diagram} of that recording —
    the same execution the causal sanitizer reads. *)

type fig1_outcome = {
  exec : Repro_analyze.Exec.t option;
      (** the recorded execution (multicasts labelled [m1]…[m4]); [None]
          under [Parallel] *)
  deliveries : (int * string list) list;  (** member index, delivery order *)
  registry_snapshot : Repro_obs.Registry.snapshot;
      (** merged protocol-metrics snapshot over the three stacks; empty
          unless the run was created with [~metrics:true] *)
}

val fig1_run :
  ?engine_impl:Engine.impl ->
  ?obs:Repro_obs.Log.t ->
  ?causal_impl:Repro_catocs.Config.causal_impl ->
  ?metrics:bool ->
  unit ->
  fig1_outcome
(** The Figure 1 execution itself: m1 from Q, P reacting with m2, then the
    concurrent m3/m4. [obs] attaches a telemetry log to the group (the
    source for the exported Figure 1 trace); [causal_impl] selects the
    causal layer (the figure's delivery properties must hold under both);
    [metrics] enables the per-stack registries. [engine_impl] defaults to
    [Sequential], which records the execution; under [Parallel] the
    recording ([exec] is [None]) and the causal graph are skipped (the
    [obs] log, which must then be [~synchronized:true], carries the
    cross-domain determinism evidence). *)

val fig1_causal_order : unit -> string
(** Figure 1: the 3-process diagram — m1 causally precedes m2 and m4; m3
    and m4 are concurrent. Rendered from {!fig1_exec}. *)

val fig2_hidden_channel : unit -> string
(** Figure 2: a shop-floor trial (seed-searched until the anomaly shows),
    rendered from the execution {!fig2_exec} returns: the database applies
    "stop" before "start", yet the observer delivers "stop" last. *)

val fig3_external_channel : unit -> string
(** Figure 3: a fire-alarm trial where "fire out" is the last message
    the observer delivers, rendered from the execution {!fig3_exec}
    returns. *)

val fig1_table : unit -> Table.t
(** A machine-checkable summary of the Figure 1 properties. *)

val fig1_exec :
  ?causal_impl:Repro_catocs.Config.causal_impl -> unit -> Repro_analyze.Exec.t
(** The execution a sequential {!fig1_run} records, for the diagram and
    the causal sanitizer: all ordering flows through the transport, so the
    analyzer should report no findings — under either causal
    implementation. *)

val fig2_exec :
  ?causal_impl:Repro_catocs.Config.causal_impl -> unit -> Repro_analyze.Exec.t
(** The Figure 2 shop-floor anomaly (first anomalous seed) as a recorded
    execution: one channel edge per lot through the shared database, which
    the analyzer reports as a hidden channel. The one seed search that
    {!fig2_hidden_channel} draws. *)

val fig3_exec :
  ?causal_impl:Repro_catocs.Config.causal_impl -> unit -> Repro_analyze.Exec.t
(** The Figure 3 fire-alarm anomaly: channel edges through the physical
    world between successive reports of one trial. The one seed search
    that {!fig3_external_channel} draws. *)
