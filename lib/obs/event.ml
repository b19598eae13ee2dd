type layer = Transport | Ordering | Stability | View | App

let layer_name = function
  | Transport -> "transport"
  | Ordering -> "ordering"
  | Stability -> "stability"
  | View -> "view"
  | App -> "app"

type gauge =
  | Unstable_msgs
  | Unstable_bytes
  | Queue_depth
  | Blocked_msgs

let gauge_name = function
  | Unstable_msgs -> "unstable_msgs"
  | Unstable_bytes -> "unstable_bytes"
  | Queue_depth -> "queue_depth"
  | Blocked_msgs -> "blocked_msgs"

(* How a copy of a multicast left a node: the origin's initial fanout, a
   PC forward after first delivery, or a barrier-gap resend. These events
   reconstruct the full dissemination tree of a message from the log. *)
type hop_kind = Origin_copy | Forward_copy | Resend_copy

let hop_kind_name = function
  | Origin_copy -> "origin"
  | Forward_copy -> "forward"
  | Resend_copy -> "resend"

type event =
  | Span_send of { uid : int; pid : int; bytes : int }
  | Span_recv of { uid : int; pid : int }
  | Span_queued of { uid : int; pid : int }
  | Span_delivered of { uid : int; pid : int }
  | Span_stable of { uid : int; pid : int }
  | View_flush_start of { pid : int; view_id : int }
  | View_flush_end of { pid : int; view_id : int }
  | Retransmit of { pid : int; dst : int; seq : int; attempt : int }
  | Gauge_sample of { pid : int; gauge : gauge; value : int }
  | Hop_send of { uid : int; pid : int; dst : int; kind : hop_kind }

type record = { at : Sim_time.t; layer : layer; event : event }

let layer_of = function
  | Span_send _ | Span_delivered _ -> App
  | Span_recv _ | Retransmit _ -> Transport
  | Span_queued _ -> Ordering
  | Span_stable _ -> Stability
  | View_flush_start _ | View_flush_end _ -> View
  | Gauge_sample { gauge = Unstable_msgs | Unstable_bytes; _ } -> Stability
  | Gauge_sample { gauge = Queue_depth | Blocked_msgs; _ } -> Ordering
  | Hop_send _ -> Ordering

let event_name = function
  | Span_send _ -> "span_send"
  | Span_recv _ -> "span_recv"
  | Span_queued _ -> "span_queued"
  | Span_delivered _ -> "span_delivered"
  | Span_stable _ -> "span_stable"
  | View_flush_start _ -> "view_flush_start"
  | View_flush_end _ -> "view_flush_end"
  | Retransmit _ -> "retransmit"
  | Gauge_sample _ -> "gauge_sample"
  | Hop_send _ -> "hop_send"
