type ordering = Fifo | Causal | Total_sequencer | Total_lamport

type failure_detection =
  | Oracle
  | Heartbeat of { period : Sim_time.t; timeout : Sim_time.t }

type transport_mode =
  | Bare
  | Fifo_order
  | Reliable of { rto : Sim_time.t; max_retries : int }

type causal_impl = Vector_causal | Pc_causal

type pc_overlay = Pc_full_mesh | Pc_tree of { fanout : int }

type stability_clock = Dense_clock | Sparse_clock

type wire_format = Structural | Encoded

type t = {
  ordering : ordering;
  gossip_period : Sim_time.t;
  transport : transport_mode;
  failure_detection : failure_detection;
  piggyback_history : bool;
  payload_bytes : int;
  track_graph : bool;
  causal_impl : causal_impl;
  pc_overlay : pc_overlay;
  stability_clock : stability_clock;
  wire_format : wire_format;
  metrics : bool;
}

let default =
  { ordering = Causal; gossip_period = Sim_time.ms 20; transport = Bare;
    failure_detection = Oracle; piggyback_history = false;
    payload_bytes = 256; track_graph = true; causal_impl = Vector_causal;
    pc_overlay = Pc_full_mesh; stability_clock = Dense_clock;
    wire_format = Structural; metrics = false }

let ordering_name = function
  | Fifo -> "fifo"
  | Causal -> "causal"
  | Total_sequencer -> "total-seq"
  | Total_lamport -> "total-lamport"

(* PC-broadcast is a causal-layer replacement: it only changes how the
   [Causal] ordering is achieved. The total-order modes keep their
   vector-timestamp causal substrate. *)
let pc_active t = t.causal_impl = Pc_causal && t.ordering = Causal

let with_causal_impl causal_impl t =
  { t with causal_impl;
    transport =
      (match (causal_impl, t.transport) with
       | Pc_causal, Bare -> Fifo_order
       | (Pc_causal | Vector_causal), _ -> t.transport) }
