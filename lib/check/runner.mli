(** The schedule-exploration loop: seed -> fault plan -> deterministic run
    -> oracle verdict, with counterexample shrinking.

    One seed fully determines a run: the plan is sampled from the seed by
    {!Fault_plan.generate}, the engine RNG seed is derived from the same
    integer, and no other randomness exists — so any failure replays
    exactly, and shrinking can re-execute candidate sub-plans at will.

    Runs use [Reliable] transport (flush control traffic must survive the
    injected loss; see the note in {!Repro_catocs.Stack}) and [Oracle]
    failure detection (heartbeat false suspicion legitimately splits views,
    which is a finding of the experiments, not a protocol bug for the
    checker to flag). *)

type report = {
  seed : int;
  ordering : Repro_catocs.Config.ordering;
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

val replay :
  ?engine_impl:Engine.impl ->
  ?causal_impl:Repro_catocs.Config.causal_impl ->
  ?stability_clock:Repro_catocs.Config.stability_clock ->
  ordering:Repro_catocs.Config.ordering ->
  seed:int ->
  Fault_plan.t ->
  verdict
(** Execute an explicit fault plan (e.g. a shrunk counterexample) under the
    given seed's engine randomness, without re-shrinking. Used by tests to
    confirm that a shrunk plan still reproduces its violation. *)

val run_seed :
  ?profile:Fault_plan.profile ->
  ?shrink:bool ->
  ?engine_impl:Engine.impl ->
  ?causal_impl:Repro_catocs.Config.causal_impl ->
  ?stability_clock:Repro_catocs.Config.stability_clock ->
  ?wire_format:Repro_catocs.Config.wire_format ->
  ordering:Repro_catocs.Config.ordering ->
  seed:int ->
  unit ->
  verdict
(** Execute one seed. [shrink] (default true) minimises the fault plan of a
    failing run before reporting. [engine_impl] (default [Sequential])
    selects the engine execution strategy: under [Parallel] the run uses a
    sharded oracle (per-sender uid allocation) and per-member reaction
    budgets, so its verdicts are deterministic in the domain count but not
    comparable with [Sequential] verdicts for the same seed.
    [causal_impl] (default [Vector_causal]) selects the causal-delivery
    algorithm — BSS vector-timestamp piggybacking or PC-broadcast
    constant-metadata forwarding over the full mesh; [stability_clock]
    (default [Dense_clock]) selects the stability matrix-clock
    representation; [wire_format] (default [Structural]) selects whether
    every message crosses the network as a value or as a
    {!Repro_catocs.Wire_codec} frame. *)

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
  ?causal_impl:Repro_catocs.Config.causal_impl ->
  ?stability_clock:Repro_catocs.Config.stability_clock ->
  ?wire_format:Repro_catocs.Config.wire_format ->
  ordering:Repro_catocs.Config.ordering ->
  seeds:int ->
  unit ->
  sweep_result
(** Run seeds [start_seed .. start_seed + seeds - 1], stopping at the first
    failure. [on_seed] is a progress hook. *)

val exec_of_plan :
  ?engine_impl:Engine.impl ->
  ?causal_impl:Repro_catocs.Config.causal_impl ->
  ?stability_clock:Repro_catocs.Config.stability_clock ->
  ordering:Repro_catocs.Config.ordering ->
  seed:int ->
  Fault_plan.t ->
  Repro_analyze.Exec.t * verdict
(** Execute an explicit plan and export the run for the offline analyzer
    (via {!Oracle.to_exec}), together with the oracle verdict for the run
    (unshrunk). *)

val exec_of_seed :
  ?causal_impl:Repro_catocs.Config.causal_impl ->
  ordering:Repro_catocs.Config.ordering ->
  seed:int ->
  unit ->
  Repro_analyze.Exec.t * verdict
(** [exec_of_plan] on the seed's fault plan under
    {!Fault_plan.default_profile}. *)

val member_metrics :
  ordering:Repro_catocs.Config.ordering ->
  seed:int ->
  unit ->
  (string * Repro_catocs.Metrics.t * Repro_obs.Registry.t) list
(** Every member's protocol metrics and metrics registry at the end of the
    seed's run (not judged), by name in registration order. Only these
    runs turn {!Repro_catocs.Config.metrics} on. *)

val pp_report : Format.formatter -> report -> unit

val fingerprint : verdict -> string
(** Canonical rendering for determinism tests: same seed, same string. *)
