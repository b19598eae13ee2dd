(** Protocol-metrics registry: typed counters, gauges and histograms keyed
    by [(layer, name, labels)].

    Registration happens once per handle (setup time); the returned cell is
    bare mutable state, so hot-path updates are a single store — no
    hashing, no bounds checks, no allocation. A registry created with
    [~enabled:false] returns shared {e scrap} cells instead: updates write
    to a sink that no snapshot ever reads, which keeps the disabled path
    inside the same <2% overhead envelope as a disabled {!Log} (measured
    by the bench [obs_overhead] section).

    One registry belongs to one stack. Under [Engine.Parallel] every stack
    mutates only its own cells, so no synchronization is needed;
    {!snapshot}s from all stacks {!merge} into group totals whose value —
    and {!fingerprint} — is independent of domain count. *)

type t

type counter
type gauge

val create : ?enabled:bool -> unit -> t
val enabled : t -> bool

val null : unit -> t
(** A shared process-wide disabled registry: all handles are scrap cells.
    Lets instrumented modules keep unconditional cell fields when their
    owner attached no registry. *)

(** {2 Registration} — idempotent per key; re-registering the same key with
    a different type raises [Invalid_argument]. Only counters take labels
    (gauges and histograms register with none); labels are
    order-insensitive (sorted on registration). *)

val counter :
  t -> layer:Event.layer -> name:string -> ?labels:(string * string) list ->
  unit -> counter

val gauge : t -> layer:Event.layer -> name:string -> unit -> gauge

val histogram : t -> layer:Event.layer -> name:string -> unit -> Histo.t
(** The handle is a plain {!Histo.t}; feed it with [Histo.add]. *)

(** {2 Hot-path updates} — one store each. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int
val set : gauge -> int -> unit
val gauge_value : gauge -> int

(** {2 Snapshots} *)

type key = private {
  layer : Event.layer;
  name : string;
  labels : (string * string) list;
}

type sample = Counter_v of int | Gauge_v of int | Histo_v of Histo.t

type snapshot = (key * sample) list
(** Sorted by (layer, name, labels); histograms are deep-copied, so a
    snapshot is immutable with respect to further updates. *)

val snapshot : t -> snapshot
(** Empty for a disabled registry. *)

val merge : snapshot -> snapshot -> snapshot
(** Key-wise: counters and gauges add, histograms merge bucket-wise.
    Commutative and associative, so group totals do not depend on stack
    order. *)

val merge_all : snapshot list -> snapshot

val counter_total : snapshot -> layer:Event.layer -> name:string -> int
(** Sum over all label sets of the named counter; 0 when absent. *)

val gauge_total : snapshot -> layer:Event.layer -> name:string -> int

val histo : snapshot -> layer:Event.layer -> name:string -> Histo.t option
(** Merge of all label sets of the named histogram. *)

(** {2 Exporters} *)

val to_prometheus : snapshot -> string
(** Prometheus text format: [catocs_<layer>_<name>] metric names, counters
    suffixed [_total], histograms as summaries (p50/p99/p999 quantile
    samples plus [_sum]/[_count]). *)

val to_json : snapshot -> string
(** Single-line JSON: [{"schema_version":1,"metrics":[...]}]. *)

val fingerprint : snapshot -> string
(** Hex digest over every key, counter/gauge total and histogram bucket —
    equal iff the snapshots are observationally identical. *)
