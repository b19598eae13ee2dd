(** The schedule-exploration loop: seed -> fault plan -> deterministic run
    -> oracle verdict, with counterexample shrinking.

    One seed fully determines a run: the plan is sampled from the seed by
    {!Fault_plan.generate}, the engine RNG seed is derived from the same
    integer, and no other randomness exists — so any failure replays
    exactly, and shrinking can re-execute candidate sub-plans at will.

    Every entry point runs the {!Repro_catocs.Config.t} it is given, so
    one value names a run's settings, and a seed, a replay of its plan and
    its exported execution all see the same ones:
    {[
      let config =
        Config.with_causal_impl Config.Pc_causal (Runner.config Config.Causal)
      in
      match Runner.run_seed ~config ~seed:7 () with
      | Pass _ -> ()
      | Fail r -> ignore (Runner.replay ~config:r.config ~seed:r.seed r.plan)
    ]}
    {!config} holds the checker's settings: [Reliable] transport (flush
    control traffic must survive the injected loss; see the note in
    {!Repro_catocs.Stack}) and [Oracle] failure detection (heartbeat false
    suspicion legitimately splits views, which is a finding of the
    experiments, not a protocol bug for the checker to flag). *)

type report = {
  seed : int;
  config : Repro_catocs.Config.t;  (** the settings the run used *)
  plan : Fault_plan.t;  (** shrunk when [shrunk] *)
  violation : Oracle.violation;
  trace : string;  (** rendered delivery trace of the implicated messages *)
  shrunk : bool;
}

type verdict = Pass of { sends : int; deliveries : int } | Fail of report

val orderings : (string * Repro_catocs.Config.ordering) list
(** CLI-facing names: fbcast, cbcast, abcast, lamport. *)

val ordering_of_string : string -> Repro_catocs.Config.ordering option
(** Accepts the names above plus "fifo" as an alias for fbcast. *)

val config : Repro_catocs.Config.ordering -> Repro_catocs.Config.t
(** The checker's settings for an ordering: [Reliable {rto = 10 ms;
    max_retries = 400}] transport, [Oracle] failure detection, BSS causal
    delivery over a PC full mesh (the mesh keeps every member one
    forwarding hop away under partitions), the dense stability clock, the
    [Structural] wire, and neither the shared causal graph (no oracle reads
    it) nor the metrics registries. Derive other runs from it:
    [{ (config Causal) with stability_clock = Sparse_clock }], or
    {!Repro_catocs.Config.with_causal_impl} for PC-broadcast. *)

val replay :
  ?engine_impl:Engine.impl ->
  config:Repro_catocs.Config.t ->
  seed:int ->
  Fault_plan.t ->
  verdict
(** Execute an explicit fault plan (e.g. a shrunk counterexample) under the
    given seed's engine randomness, without re-shrinking. A report replays
    under its own settings: [replay ~config:r.config ~seed:r.seed r.plan]. *)

val run_seed :
  ?profile:Fault_plan.profile ->
  ?shrink:bool ->
  ?engine_impl:Engine.impl ->
  config:Repro_catocs.Config.t ->
  seed:int ->
  unit ->
  verdict
(** Execute one seed. [shrink] (default true) minimises the fault plan of a
    failing run before reporting. [engine_impl] (default [Sequential])
    selects the engine execution strategy: under [Parallel] the run uses a
    sharded oracle (per-sender uid allocation) and per-member reaction
    budgets, so its verdicts are deterministic in the domain count but not
    comparable with [Sequential] verdicts for the same seed. [Parallel]
    needs [config.track_graph = false], as {!config} has it. *)

type sweep_result = {
  passed : int;
  failed : report option;  (** first failing seed, if any *)
  total_sends : int;
  total_deliveries : int;
}

val sweep :
  ?profile:Fault_plan.profile ->
  ?shrink:bool ->
  ?start_seed:int ->
  ?on_seed:(seed:int -> ok:bool -> unit) ->
  ?engine_impl:Engine.impl ->
  config:Repro_catocs.Config.t ->
  seeds:int ->
  unit ->
  sweep_result
(** Run seeds [start_seed .. start_seed + seeds - 1], stopping at the first
    failure. [on_seed] is a progress hook. *)

val exec_of_plan :
  ?engine_impl:Engine.impl ->
  config:Repro_catocs.Config.t ->
  seed:int ->
  Fault_plan.t ->
  Repro_analyze.Exec.t * verdict
(** Execute an explicit plan and export the run for the offline analyzer
    (via {!Oracle.to_exec}), together with the oracle verdict for the run
    (unshrunk). *)

val exec_of_seed :
  config:Repro_catocs.Config.t ->
  seed:int ->
  unit ->
  Repro_analyze.Exec.t * verdict
(** [exec_of_plan] on the seed's fault plan under
    {!Fault_plan.default_profile}. *)

val member_metrics :
  config:Repro_catocs.Config.t ->
  seed:int ->
  unit ->
  (string * Repro_catocs.Metrics.t * Repro_obs.Registry.t) list
(** Every member's protocol metrics and metrics registry at the end of the
    seed's run (not judged), by name in registration order. These runs
    turn {!Repro_catocs.Config.metrics} on whatever [config] says. *)

val pp_report : Format.formatter -> report -> unit
(** The header names the seed, the ordering and, when they differ from
    {!config}'s, the causal layer, the wire format and the stability
    clock. *)

val fingerprint : verdict -> string
(** Canonical rendering for determinism tests: same seed, same string. *)
