(** The detector pipeline: one recorded execution in, findings out.

    Detectors, in report order:

    - {e duplicate-uid}: a uid delivered more than once by the same
      process (Error; the {!Delivery_judge}'s at-most-once verdict);
    - {e causal-cycle}: the happened-before relation is cyclic, i.e. the
      instrumentation or the run itself is inconsistent (Error; the
      order-sensitive detectors below are skipped for cyclic inputs);
    - {e causal-order}: a process delivered a message before one in its
      recorded causal past — the {!Delivery_judge}'s verdict, the same code
      the checker's causal oracle calls, with the transport-visible
      happened-before path as evidence (Error);
    - {e hidden-channel}: a declared channel edge with no transport-visible
      happened-before path underneath it — exactly the situation of the
      paper's Figures 1-3 where CATOCS cannot see the ordering that matters
      (Error if some process observably inverted the two sides, Warning if
      the run happened to stay consistent);
    - {e false-causality}: enforced context minus declared semantic
      dependencies minus same-sender traffic, for executions under a
      causal/total discipline that declare semantics (Info per message,
      aggregate in the stats);
    - {e stability-lag}: messages whose worst-case delivery lag is an
      extreme outlier against the run's own distribution (Warning). *)

type config = {
  max_findings_per_kind : int;  (** cap per kind per source (default 40) *)
  stability_min_samples : int;
      (** below this many delivered messages, lag outliers are not judged *)
  stability_sigma : float;  (** outlier if lag > mean + sigma * stddev... *)
  stability_median_factor : float;  (** ...and lag > factor * median *)
}

val default_config : config

type result = {
  source : string;
  hb : Hb.t;
  findings : Finding.t list;
  stats : (string * Json.t) list;
}

val analyze : ?config:config -> Exec.t -> result

val report_json :
  mode:string ->
  ?extra:(string * Finding.t list) list ->
  result list ->
  Json.t
(** Assemble the findings document for a set of analyzed executions plus
    optional extra sources (e.g. per-scenario watchdog findings), via
    {!Finding.report_to_json}. *)

val all_findings :
  ?extra:(string * Finding.t list) list -> result list -> Finding.t list

val worst_severity : Finding.t list -> Finding.severity option
