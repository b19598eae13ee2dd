(** Typed telemetry events.

    Every record pins one protocol-level fact to a simulated instant: a
    message crossing a lifecycle boundary (sent, arrived, queued, delivered,
    stable), a view-change flush starting or ending, a transport
    retransmission, or a periodic gauge sample. Records are what {!Log}
    stores and what the {!Span} assembler and the {!Export} writers consume;
    the detectors in [lib/analyze] ingest them directly ([Exec.of_log]). *)

(** Which part of the stack emitted the event. *)
type layer = Transport | Ordering | Stability | View | App

val layer_name : layer -> string

(** Periodically sampled per-node occupancy gauges (the quantities
    Section 5's buffering argument is about). *)
type gauge =
  | Unstable_msgs  (** stability buffer, messages *)
  | Unstable_bytes  (** stability buffer, bytes *)
  | Queue_depth  (** causal/FIFO delivery queue occupancy *)
  | Blocked_msgs  (** everything blocked: delivery + total-order queues *)

val gauge_name : gauge -> string

(** How a copy of a multicast left a node: the origin's initial fanout, a
    PC forward after first delivery, or a barrier-gap resend. *)
type hop_kind = Origin_copy | Forward_copy | Resend_copy

val hop_kind_name : hop_kind -> string

type event =
  | Span_send of { uid : int; pid : int; bytes : int }
      (** multicast stamped at its origin; [bytes] is the payload size *)
  | Span_recv of { uid : int; pid : int }
      (** copy arrived at [pid] and entered the ordering layer (the origin's
          own loopback copy arrives at its send instant) *)
  | Span_queued of { uid : int; pid : int }
      (** copy parked in an ordering queue (delivery condition or total
          order not yet satisfied); absent for immediately deliverable
          copies *)
  | Span_delivered of { uid : int; pid : int }
      (** handed to the application callback *)
  | Span_stable of { uid : int; pid : int }
      (** [pid]'s stability tracker proved the message received everywhere
          and dropped it from the unstable buffer *)
  | View_flush_start of { pid : int; view_id : int }
      (** [pid] entered the flush round for [view_id]: sends suppressed *)
  | View_flush_end of { pid : int; view_id : int }
      (** the round ended at [pid]: the view was installed, or the round
          was abandoned for a later one *)
  | Retransmit of { pid : int; dst : int; seq : int; attempt : int }
      (** reliable transport resent channel segment [seq] to [dst] *)
  | Gauge_sample of { pid : int; gauge : gauge; value : int }
  | Hop_send of { uid : int; pid : int; dst : int; kind : hop_kind }
      (** [pid] put a copy of multicast [uid] on the wire towards [dst];
          the full set of these records is the dissemination tree
          {!Trace_tree} reconstructs *)

type record = { at : Sim_time.t; layer : layer; event : event }

val layer_of : event -> layer
(** The fixed emitting layer of each event kind (gauges report the layer
    that owns the sampled quantity). *)

val event_name : event -> string
(** Stable snake_case tag, used by the JSONL exporter and its tests. *)
