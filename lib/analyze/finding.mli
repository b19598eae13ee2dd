(** Analyzer findings and their stable JSON form.

    [ANALYZE_findings.json] is consumed by CI and by tests, so the encoding
    here is a schema: field names and kind/severity spellings are stable,
    and additions must be backward compatible (bump [schema_version] on any
    breaking change). *)

type kind =
  | Hidden_channel
      (** a declared ordering constraint travels outside the transport *)
  | False_causality
      (** enforced potential causality exceeds declared semantic needs *)
  | Causal_order  (** a delivery violates causal order (analyzer's view) *)
  | Causal_cycle  (** the happened-before relation is cyclic *)
  | Duplicate_uid  (** a uid delivered more than once at a process *)
  | Stability_lag  (** a message's delivery lag is an extreme outlier *)
  | Determinism_hazard  (** source-level nondeterminism outside [lib/sim] *)
  | Shared_mutable
      (** module-level mutable state (the surface a domain-sharding refactor
          must partition): top-level refs, mutable record fields, module-level
          hash tables — reported by [repro-lint]'s aliasing inventory *)
  | Aliasing_hazard
      (** structural equality on values whose discipline is physical sharing
          (interned clock rows compare by [==], not [=]) *)
  | Contract_violation
      (** a repo-level protocol contract is broken: a chaos hook with no
          test/ mutation conviction, or a [Config] dispatch variant missing
          from the checker, scaling or bench families *)
  | Stability_stall
      (** watchdog: delivered messages still unstable long after delivery —
          gossip/minima propagation has stalled *)
  | Buffer_growth
      (** watchdog: the unstable-buffer gauge grows monotonically across
          the configured window — Section 5's buffering cost as an alarm *)
  | Ordering_outlier
      (** watchdog: ordering-wait p999 is orders of magnitude above p50 *)
  | Copy_conservation
      (** watchdog: registry copy counters disagree with the hop census in
          the telemetry log — an instrumentation point was dropped *)
  | Duplicate_copy_rate
      (** watchdog: duplicate dissemination copies exceed the configured
          rate (PC full-mesh redundancy is reported at [Info]) *)

type severity = Info | Warning | Error

type t = {
  kind : kind;
  severity : severity;
  source : string;  (** which execution / file produced it *)
  summary : string;
  uids : int list;
  pids : int list;
  evidence : string list;  (** human-readable path / line references *)
}

val kind_name : kind -> string
(** Stable kebab-case spelling, e.g. ["hidden-channel"]. *)

val kind_of_name : string -> kind option

val severity_name : severity -> string
val compare_severity : severity -> severity -> int
(** Orders [Error] highest. *)

val compare : t -> t -> int
(** Report order: descending severity, then kind, then uids, then summary. *)

val to_json : t -> Json.t

val report_to_json :
  mode:string -> sources:(string * (string * Json.t) list) list -> t list -> Json.t
(** The full findings document: [schema_version], [tool], [mode], per-source
    stats, sorted findings, and severity counts. *)

val pp : Format.formatter -> t -> unit
