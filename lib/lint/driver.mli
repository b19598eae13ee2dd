(** The repro-lint driver: walk the requested roots, run the per-file rule
    families (plus the repo-level contract cross-checks over the full
    lib/bin/test/bench surface), apply the baseline, and render the
    deterministic findings document. *)

val default_roots : string list
(** [["lib"; "bin"]]. *)

type result = {
  roots : string list;
  files : int;  (** units scanned by the per-file rules *)
  kept : Rule.t list;  (** unsuppressed findings, in report order *)
  suppressed : Rule.t list;
  stale : Baseline.entry list;
}

val scan :
  ?baseline:Baseline.t ->
  ?roots:string list ->
  repo_root:string ->
  unit ->
  result
(** The repo-level cross-checks always load lib/, bin/, test/ and bench/
    regardless of [roots]. *)

val worst : result -> Repro_analyze.Finding.severity option
val report_json : result -> Repro_analyze.Json.t
(** The [LINT_findings.json] document: schema_version, tool, roots,
    baseline stats (suppressed count + stale entries), findings (in the
    analyzer's {!Repro_analyze.Finding.to_json} encoding) and severity
    counts. *)
