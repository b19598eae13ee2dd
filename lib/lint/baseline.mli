(** The committed suppression baseline ([LINT_baseline.json] at the repo
    root): the reviewed shared-mutable-surface inventory plus accepted
    warnings. A finding is suppressed when its (rule, source, symbol) key is
    listed — line numbers are deliberately not part of the identity, so
    unrelated edits don't churn the file. CI runs with [--fail-on info]
    against this baseline, so any growth of the mutable surface (a new key)
    fails until the baseline is explicitly regenerated and reviewed. *)

type entry = { rule : string; source : string; symbol : string }
type t = entry list

val empty : t
val of_findings : Rule.t list -> t

val to_json : t -> Repro_analyze.Json.t
val of_json : Repro_analyze.Json.t -> (t, string) result
val load : string -> (t, string) result
val save : string -> t -> unit

type applied = {
  kept : Rule.t list;  (** unsuppressed findings *)
  suppressed : Rule.t list;
  stale : entry list;  (** baseline entries that no longer match anything *)
}

val apply : t -> Rule.t list -> applied
