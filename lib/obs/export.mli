(** Telemetry exporters.

    {!chrome_trace} renders a log in the Chrome trace-event JSON format
    (the ["traceEvents"] array form), loadable in Perfetto / chrome://
    tracing: one track ([pid]) per simulated process, lifecycle spans as
    ["X"] complete events with [transit] / [ordering-wait] /
    [buffered-unstable] child phases nested under each message span, flush
    rounds on the control thread (tid 0), retransmissions as instants, and
    gauge samples as ["C"] counter series. Overlapping message spans on one
    process are spread over per-process lanes (tids) greedily, so every
    span is visible. Timestamps are emitted in microseconds — [Sim_time]'s
    own unit — with no scaling.

    {!jsonl} is the raw feed: one JSON object per line per record, carrying
    the {!Event.event_name} tag, the layer and every scalar field. Both
    emit deterministic output (fixed field order, no hash-order
    dependence), so exports are golden-file testable and diffable across
    runs. *)

val escape : string -> string
(** The body of a JSON string literal for [s]: quotes, backslashes and
    control characters escaped. The JSON writers of this library pass every
    free-form string (process names, metric names and labels) through it. *)

val chrome_trace : ?names:(int * string) list -> Log.t -> string
(** [names] maps pids to display names for track labels (unlisted pids show
    as [p<pid>]). *)

val jsonl : Log.t -> string
(** Newline-terminated. Empty string for an empty log. *)
