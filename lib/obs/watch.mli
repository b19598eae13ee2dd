(** Runtime watchdogs over the obs log and metrics registry.

    Four threshold rules, replayed over recorded telemetry:
    - {b stability-stall}: delivered messages still unstable long after
      delivery — gossip/minima propagation has stalled.
    - {b buffer-growth}: the unstable-message gauge rising monotonically
      across consecutive ticks — buffering is unbounded at current rates
      (the paper's Section 5 buffering cost made into an alarm).
    - {b ordering-outlier}: ordering-wait p999 orders of magnitude above
      p50 — a few messages blocked far behind the rest.
    - {b copy-conservation} / {b duplicate-copy-rate}: registry counters
      must agree exactly with the hop records in the log; duplicate
      dissemination copies are reported (as info: PC full-mesh
      forwarding floods duplicates by design).

    Findings are plain records; [bin/analyze_cli watch] converts them into
    analyzer JSON so CI can [--fail-on] them. *)

type severity = Info | Warning | Error

type finding = {
  rule : string;
  severity : severity;
  summary : string;
  evidence : string list;
}

val run : ?snapshot:Registry.snapshot -> Log.t -> finding list
(** Evaluate every rule (100 ms stall, 8 rising ticks ending at >= 64
    messages, p999 > 100x p50 and > 10 ms); findings come back in rule
    order. The copy-conservation rule is skipped without a [snapshot] or
    when the log ring dropped records. *)
