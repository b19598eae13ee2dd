type 'a callbacks = {
  deliver : sender:Engine.pid -> 'a -> unit;
  view_change : Group.view -> unit;
  member_failed : Engine.pid -> unit;
  direct : src:Engine.pid -> 'a -> unit;
}

let null_callbacks =
  { deliver = (fun ~sender:_ _ -> ());
    view_change = (fun _ -> ());
    member_failed = (fun _ -> ());
    direct = (fun ~src:_ _ -> ()) }

(* Chaos hook: drop the [ordering/forward_copies] registry increment while
   still sending the copy (and its hop event). The copy-conservation
   watchdog must then flag the census/counter mismatch — the conviction
   test for the metrics battery. *)
let chaos_drop_forward_copy_metric = ref false

type shared = {
  group_id : int;
  graph : Causality.t option;
  obs : Repro_obs.Log.t option;
      (* one telemetry log for the whole group: events carry the pid *)
  mutable next_msg_id : int;
  id_index : (int * int * int, Wire.msg_id) Hashtbl.t;
      (* (view_id, rank, per-sender seq) -> msg_id, for graph arcs *)
}

let next_group_id = Atomic.make 0

let make_shared ?group_id ?obs (config : Config.t) =
  let group_id =
    match group_id with
    | Some id -> id
    | None -> Atomic.fetch_and_add next_group_id 1 + 1
  in
  { group_id;
    graph = (if config.Config.track_graph then Some (Causality.create ()) else None);
    obs;
    next_msg_id = 0;
    id_index = Hashtbl.create 256 }

let shared_graph shared = shared.graph
let group_id shared = shared.group_id

type flush_state = {
  new_view_id : int;
  survivors : Engine.pid list;  (* flush participants: current live members *)
  survivor_set : Pid_set.t;  (* same pids, for O(log n) membership *)
  new_members : Engine.pid list;  (* survivors plus any admitted joiners *)
  mutable flush_from : Pid_set.t;
  mutable done_from : Pid_set.t;  (* coordinator only *)
  mutable done_sent : bool;
  started_at : Sim_time.t;
}

type join_state = {
  mutable pending_view : (int * Engine.pid list) option;
  mutable pending_state : (int * string) option;
}

type status = Normal | Flushing of flush_state | Joining of join_state

(* Per-stack registry cells, registered once at stack creation so every
   hot-path update is a single store ([Config.metrics] off hands back scrap
   cells — same discipline as a disabled [Obs.Log]). The three copy counters
   use the exact conservation vocabulary [Obs.Watch.copy_conservation]
   audits against the hop census in the telemetry log. *)
type reg_cells = {
  registry : Repro_obs.Registry.t;
  origin_copies : Repro_obs.Registry.counter;
  forward_copies : Repro_obs.Registry.counter;
  resend_copies : Repro_obs.Registry.counter;
  delivery_latency : Repro_obs.Histo.t;  (* ordering/delivery_latency_us *)
  gossip_msgs : Repro_obs.Registry.counter;
  c_flushes : Repro_obs.Registry.counter;
  c_view_changes : Repro_obs.Registry.counter;
  encoded_bytes : Repro_obs.Registry.counter;  (* real encoded copy bytes *)
  modeled_bytes : Repro_obs.Registry.counter;  (* structural model, same copies *)
  g_queue_depth : Repro_obs.Registry.gauge;
  g_blocked_msgs : Repro_obs.Registry.gauge;
  g_unstable_msgs : Repro_obs.Registry.gauge;
  g_unstable_bytes : Repro_obs.Registry.gauge;
}

let make_reg_cells (config : Config.t) =
  let registry =
    Repro_obs.Registry.create ~enabled:config.Config.metrics ()
  in
  (* literal [~name]s at the [Registry.*] call sites: repro-lint's
     metric-coverage contract inventories exactly these and requires each
     spelling to be pinned by a test *)
  let open Repro_obs in
  let o = Event.Ordering in
  { registry;
    origin_copies = Registry.counter registry ~layer:o ~name:"origin_copies" ();
    forward_copies =
      Registry.counter registry ~layer:o ~name:"forward_copies" ();
    resend_copies = Registry.counter registry ~layer:o ~name:"resend_copies" ();
    delivery_latency =
      Registry.histogram registry ~layer:o ~name:"delivery_latency_us" ();
    gossip_msgs =
      Registry.counter registry ~layer:Event.Stability ~name:"gossip_msgs" ();
    c_flushes =
      Registry.counter registry ~layer:Event.View ~name:"flushes" ();
    c_view_changes =
      Registry.counter registry ~layer:Event.View ~name:"view_changes" ();
    encoded_bytes =
      Registry.counter registry ~layer:Event.Transport ~name:"encoded_bytes" ();
    modeled_bytes =
      Registry.counter registry ~layer:Event.Transport ~name:"modeled_bytes" ();
    g_queue_depth = Registry.gauge registry ~layer:o ~name:"queue_depth" ();
    g_blocked_msgs = Registry.gauge registry ~layer:o ~name:"blocked_msgs" ();
    g_unstable_msgs =
      Registry.gauge registry ~layer:Event.Stability ~name:"unstable_msgs" ();
    g_unstable_bytes =
      Registry.gauge registry ~layer:Event.Stability ~name:"unstable_bytes" () }

(* Per-view state: everything a view install replaces. [make_epoch] is its
   only constructor — at creation, on a flush install and on a joiner's
   install — so what resets on install has one owner. *)
type 'a epoch = {
  view : Group.view;
  rank : int;
  vc : Vector_clock.t;
  pc : Pc_causal.t option;
      (* PC-broadcast causal-layer state (overlay, link barrier, arrival
         records); [Some] iff [Config.pc_active config]. In PC mode [vc] is
         not wire-carried: it is reconstructed from delivery order
         (component [o] = highest contiguously delivered origin sequence of
         rank [o]), which keeps the gossip/stability/flush machinery working
         unchanged. *)
  queue : 'a Delivery_queue.t;
  seq_queue : 'a Total_order.Sequencer_queue.t;
  lamport_queue : 'a Total_order.Lamport_queue.t;
  stability : 'a Stability.t;
  seen : (Wire.msg_id, bool) Hashtbl.t;
      (* this view's messages past causal delivery: [false] while one waits
         for its total order, [true] once handed to the application. A copy
         arriving in the [false] window must not re-run causal delivery: the
         vc update of an own-message duplicate can move the clock backwards
         and wedge every later message from that sender. Per view suffices:
         reads are gated on the installed view, and the old view's leftover
         and skipped-view deliveries run before the swap. *)
  mutable next_global_seq : int;
  mutable deferred_lamport_gossip : (int * int * int) list;
      (* [Total_lamport] only (empty otherwise). (rank, required per-sender
         seq, lamport time): a gossiped Lamport time may only gate
         total-order release once every data message the gossiper had sent
         has been delivered here, otherwise an in-flight message with a
         smaller stamp could be overtaken *)
}

type 'a t = {
  engine : 'a Wire.t Transport.packet Engine.t;
  shared : shared;
  config : Config.t;
  self : Engine.pid;
  mutable callbacks : 'a callbacks;
  metrics : Metrics.t;
  cells : reg_cells;
  bytes_of : ('a Wire.data -> int) option;
      (* [Config.Encoded]: charge unstable-bytes gauges with real encoded
         sizes ([Wire_codec.data_bytes]); [None] keeps the header
         estimates *)
  parallel_ids : bool;
      (* parallel engine: msg_ids come from the per-stack counter below
         (seq and pid packed into the integer) instead of the group-shared
         counter, whose allocation order would depend on cross-lane
         interleaving *)
  mutable own_msg_seq : int;
  lamport : Lamport.t;
  endpoint : 'a Endpoint.t;
  mutable epoch : 'a epoch;
  mutable status : status;
  mutable outbox : 'a list;
  mutable installing : bool;
      (* inside install_epoch: application callbacks fire while
         the outbox is not yet drained, so multicasts they issue must keep
         queueing or they would be stamped ahead of sends suppressed during
         the flush — a per-sender FIFO inversion *)
  mutable failed_members : Pid_set.t;
  mutable future_proto : (int * 'a Wire.proto) list;
      (* data/order messages from a view this member has not installed yet:
         peers that finish the flush first may multicast in the new view
         before our New_view arrives; dropping them would leave a permanent
         causal gap *)
  mutable replay_proto : 'a Wire.proto -> unit;
      (* re-entry into the protocol handler, tied after its definition *)
  mutable pending_joins : Engine.pid list;
      (* join requests received during a flush, admitted in the next round *)
  mutable get_state : unit -> string;
      (* application state snapshot handed to joiners (see
         set_state_handlers) *)
  mutable set_state : string -> unit;
  mutable cancel_gossip : unit -> unit;
  mutable ejected : bool;
      (* removed from the group by its peers (crash, or false suspicion
         under heartbeat detection): the stack is inert; re-join with a
         fresh stack *)
  last_seen : (Engine.pid, Sim_time.t) Hashtbl.t option;
      (* heartbeat detection only: last protocol message per peer *)
}

let queue_mode (config : Config.t) =
  if Config.pc_active config then
    (* PC-broadcast: FIFO links plus forward-on-first-delivery make each
       link's receive order causally consistent, so a per-origin contiguity
       gate is all the delivery condition needs — no vector comparison *)
    Delivery_queue.Fifo_gap
  else
    match config.Config.ordering with
    | Config.Fifo | Config.Total_lamport -> Delivery_queue.Fifo_gap
    | Config.Causal | Config.Total_sequencer -> Delivery_queue.Causal_full

(* [prev_members] holds the members of the view this one replaces: a PC
   link between two carried-over members stays open (its FIFO channel never
   broke and the flush made their message sets agree), while a link
   involving a member new to the view starts closed and runs the ping/pong
   barrier ([install_epoch]) before data flows on it. At group creation
   every member is carried over, so all links start open. *)
let make_epoch ~shared ~(config : Config.t) ~self ?bytes_of ~registry ~metrics
    ~prev_members view =
  let rank = Group.rank_of_exn view self in
  let group_size = Group.size view in
  (* telemetry: (log, owner pid) pair handed to the per-view queues *)
  let obs = Option.map (fun log -> (log, self)) shared.obs in
  let pc =
    if not (Config.pc_active config) then None
    else begin
      let self_fresh = not (Pid_set.mem self prev_members) in
      let link_fresh peer_rank =
        self_fresh
        || not (Pid_set.mem (Group.member view peer_rank) prev_members)
      in
      Some (Pc_causal.create config ~rank ~group_size ~link_fresh)
    end
  in
  let clock =
    match config.Config.stability_clock with
    | Config.Dense_clock -> Group_clock.Dense
    | Config.Sparse_clock -> Group_clock.Sparse
  in
  { view; rank; vc = Vector_clock.create group_size; pc;
    queue = Delivery_queue.create ?obs (queue_mode config);
    seq_queue = Total_order.Sequencer_queue.create ?obs ();
    lamport_queue = Total_order.Lamport_queue.create ?obs ~group_size ();
    stability =
      Stability.create ~clock ?bytes_of ?obs ~registry ~group_size ~metrics
        ~graph:shared.graph ();
    seen = Hashtbl.create 256;
    next_global_seq = 0; deferred_lamport_gossip = [] }

let self t = t.self
let shared_of t = t.shared
let config_of t = t.config
let view t = t.epoch.view
let metrics t = t.metrics
let registry t = t.cells.registry
let unstable_count t = Stability.unstable_count t.epoch.stability
let stability_clock t = Stability.matrix t.epoch.stability
let set_callbacks t callbacks = t.callbacks <- callbacks

(* all three summands are maintained counters, so this is safe to call from
   periodic metrics samplers without touching queue contents *)
let pending_count t =
  let e = t.epoch in
  Delivery_queue.length e.queue
  + Total_order.Sequencer_queue.data_count e.seq_queue
  + Total_order.Lamport_queue.length e.lamport_queue

let note_flush t mark ~view_id =
  match t.shared.obs with
  | Some log -> mark log ~at:(Engine.now t.engine) ~pid:t.self ~view_id
  | None -> ()

(* One gauge sample per tracked quantity; wire to [Engine.every] for the
   periodic time series the scaling experiments export. All four summands
   are maintained counters, so a sample is O(1). *)
let record_gauges t =
  let unstable_msgs = Stability.unstable_count t.epoch.stability in
  let unstable_bytes = Stability.unstable_bytes t.epoch.stability in
  let depth = Delivery_queue.length t.epoch.queue in
  let blocked = pending_count t in
  if Repro_obs.Registry.enabled t.cells.registry then begin
    Repro_obs.Registry.set t.cells.g_unstable_msgs unstable_msgs;
    Repro_obs.Registry.set t.cells.g_unstable_bytes unstable_bytes;
    Repro_obs.Registry.set t.cells.g_queue_depth depth;
    Repro_obs.Registry.set t.cells.g_blocked_msgs blocked
  end;
  match t.shared.obs with
  | Some log when Repro_obs.Log.enabled log ->
    let gauge = Repro_obs.Log.gauge log ~at:(Engine.now t.engine) ~pid:t.self in
    gauge Repro_obs.Event.Unstable_msgs unstable_msgs;
    gauge Repro_obs.Event.Unstable_bytes unstable_bytes;
    gauge Repro_obs.Event.Queue_depth depth;
    gauge Repro_obs.Event.Blocked_msgs blocked
  | Some _ | None -> ()

let is_ejected t = t.ejected

let is_flushing t =
  match t.status with Normal -> false | Flushing _ | Joining _ -> true

(* [flush]: also count it as view-change protocol traffic *)
let count_control ?(flush = false) t n =
  t.metrics.Metrics.control_messages <- t.metrics.Metrics.control_messages + n;
  if flush then
    t.metrics.Metrics.flush_messages <- t.metrics.Metrics.flush_messages + n

(* A fan-out builds its wire value once and hands the same value to every
   destination (see [Endpoint.send_wire]). *)
let proto_wire t proto = Wire.Proto (t.shared.group_id, proto)
let data_wire t data = proto_wire t (Wire.Data data)

let send_proto t ~dst proto =
  Endpoint.send_wire t.endpoint ~dst (proto_wire t proto)

(* view-change protocol traffic to an explicit member list *)
let send_view_change t targets proto =
  count_control ~flush:true t (List.length targets);
  let wire = proto_wire t proto in
  List.iter (fun dst -> Endpoint.send_wire t.endpoint ~dst wire) targets

(* One physical copy of a data message: the conservation counter for its
   kind, its hop record and the send. One hop record per copy decision makes
   the full dissemination tree of a multicast reconstructable from the log
   (see [Obs.Trace_tree]); [Obs.Watch.copy_conservation] cross-checks the
   records against the counters. [wire] is the fan-out's shared
   [data_wire] value. *)
let send_copy t (kind : Repro_obs.Event.hop_kind) ~dst (wire : 'a Wire.t) =
  let data =
    match wire with
    | Wire.Proto (_, Wire.Data data) -> data
    | Wire.Proto _ | Wire.Direct _ -> invalid_arg "Stack.send_copy: not data"
  in
  (match kind with
   | Repro_obs.Event.Origin_copy ->
     Repro_obs.Registry.incr t.cells.origin_copies
   | Repro_obs.Event.Forward_copy ->
     if not !chaos_drop_forward_copy_metric then
       Repro_obs.Registry.incr t.cells.forward_copies
   | Repro_obs.Event.Resend_copy ->
     Repro_obs.Registry.incr t.cells.resend_copies);
  (match t.shared.obs with
   | Some log when Repro_obs.Log.enabled log ->
     Repro_obs.Log.hop_send log ~at:(Engine.now t.engine) ~uid:data.Wire.msg_id
       ~pid:t.self ~dst kind
   | _ -> ());
  Endpoint.send_wire t.endpoint ~dst wire

(* allocation-free fan-out over the view: the hot multicast/broadcast paths
   must not build an (n-1)-element recipient list per message *)
let iter_other_members t f =
  let members = t.epoch.view.Group.members in
  for i = 0 to Array.length members - 1 do
    let p = Array.unsafe_get members i in
    if p <> t.self then f p
  done

let broadcast_proto t proto =
  let wire = proto_wire t proto in
  iter_other_members t (fun dst -> Endpoint.send_wire t.endpoint ~dst wire)

let pc_stats t = Option.map Pc_causal.stats t.epoch.pc

let pc_neighbors t = Option.map Pc_causal.neighbors t.epoch.pc

(* --- graph bookkeeping (Section 5 active causal graph) ----------------- *)

let register_in_graph t (data : 'a Wire.data) =
  match t.shared.graph with
  | None -> ()
  | Some graph ->
    let vt = data.Wire.vt in
    let view_id = data.Wire.view_id in
    let sender = data.Wire.sender_rank in
    let sender_seq = Wire.seq data in
    let deps = ref [] in
    for r = 0 to Vector_clock.size vt - 1 do
      let seq = if r = sender then sender_seq - 1 else Vector_clock.get vt r in
      if seq > 0 then
        match Hashtbl.find_opt t.shared.id_index (view_id, r, seq) with
        | Some dep -> deps := dep :: !deps
        | None -> ()
    done;
    Hashtbl.replace t.shared.id_index (view_id, sender, sender_seq)
      data.Wire.msg_id;
    Causality.add_message graph ~id:data.Wire.msg_id ~deps:!deps

(* --- delivery ----------------------------------------------------------- *)

let final_deliver t (pending : 'a Delivery_queue.pending) =
  let data = pending.Delivery_queue.data in
  let seen = t.epoch.seen in
  (* [Hashtbl.find] rather than [find_opt]: no option box per delivery *)
  match Hashtbl.find seen data.Wire.msg_id with
  | true -> ()
  | false | exception Not_found ->
    Hashtbl.replace seen data.Wire.msg_id true;
    t.metrics.Metrics.delivered <- t.metrics.Metrics.delivered + 1;
    let now = Engine.now t.engine in
    let wait = Sim_time.sub now pending.Delivery_queue.arrived_at in
    Stats.Summary.add t.metrics.Metrics.delivery_delay_us (float_of_int wait);
    Stats.Summary.add t.metrics.Metrics.transit_us
      (float_of_int (Sim_time.sub now data.Wire.sent_at));
    if Repro_obs.Registry.enabled t.cells.registry then
      Repro_obs.Histo.add t.cells.delivery_latency
        (float_of_int (Sim_time.sub now data.Wire.sent_at));
    if wait > 0 then
      t.metrics.Metrics.delayed_messages <- t.metrics.Metrics.delayed_messages + 1;
    (match Engine.trace t.engine with
     | Some trace ->
       Trace.record trace now ~pid:t.self Trace.Deliver
         (Format.asprintf "msg#%d" data.Wire.msg_id)
     | None -> ());
    (match t.shared.obs with
     | Some log ->
       Repro_obs.Log.span_delivered log ~at:now ~uid:data.Wire.msg_id
         ~pid:t.self
     | None -> ());
    t.callbacks.deliver ~sender:data.Wire.origin data.Wire.payload

let rec release_ready t take_ready queue =
  match take_ready queue with
  | Some pending -> final_deliver t pending; release_ready t take_ready queue
  | None -> ()

let release_total_queues t =
  match t.config.Config.ordering with
  | Config.Total_sequencer ->
    release_ready t Total_order.Sequencer_queue.take_ready t.epoch.seq_queue
  | Config.Total_lamport ->
    (* our own logical clock bounds our own future stamps *)
    Total_order.Lamport_queue.observe_time t.epoch.lamport_queue
      ~rank:t.epoch.rank (Lamport.value t.lamport);
    release_ready t Total_order.Lamport_queue.take_ready t.epoch.lamport_queue
  | Config.Fifo | Config.Causal -> ()

let causal_deliver t (pending : 'a Delivery_queue.pending) =
  let data = pending.Delivery_queue.data in
  let e = t.epoch in
  if Hashtbl.mem e.seen data.Wire.msg_id then ()
  else begin
  Hashtbl.add e.seen data.Wire.msg_id false;
  (* Advance only the sender's component: in Causal_full mode this equals a
     full merge (the delivery condition guarantees vt(k) <= local(k) for
     k <> sender); in Fifo_gap mode a full merge would overstate which
     messages from third parties we have delivered. *)
  let sender = data.Wire.sender_rank in
  let sender_seq = Wire.seq data in
  Vector_clock.set e.vc sender sender_seq;
  (* a PC record carries only its sender's sequence, so both stability
     merges below collapse to single cells — the delivery hot path stays
     O(1) in group size instead of O(n) per message. *)
  (match data.Wire.meta with
   | Wire.Pc_meta _ -> Stability.note_delivered_diag e.stability data
   | Wire.Fifo_meta | Wire.Causal_meta | Wire.Seq_meta | Wire.Lamport_meta _ ->
     Stability.note_sent_or_delivered e.stability data);
  Stability.self_observe_cell e.stability ~rank:e.rank ~col:sender
    ~seq:sender_seq ~now:(Engine.now t.engine);
  (* PC forward-on-first-delivery. This must run BEFORE the application
     callback below: a reaction multicast issued synchronously from the
     delivery would otherwise be sent ahead of this message's forwarded
     copy on shared FIFO links, and a neighbor could deliver the reaction
     before its trigger — exactly the causal inversion PC's structural
     argument forbids. Forwarding a message we are about to deliver is
     safe: it is causally deliverable here, hence on our outgoing links. *)
  (match e.pc with
   | None -> ()
   | Some pc ->
     let from_rank = Pc_causal.take_arrival pc data.Wire.msg_id in
     if data.Wire.origin <> t.self then begin
       match t.status with
       | Normal ->
         let stats = Pc_causal.stats pc in
         let wire = data_wire t data in
         Pc_causal.iter_forward_targets pc ~from_rank ~origin_rank:sender
           (fun r ->
             stats.Pc_causal.forwards <- stats.Pc_causal.forwards + 1;
             t.metrics.Metrics.header_bytes <-
               t.metrics.Metrics.header_bytes + Wire.header_bytes data;
             send_copy t Repro_obs.Event.Forward_copy
               ~dst:(Group.member e.view r) wire)
       | Flushing _ | Joining _ ->
         (* the flush round itself disseminates the message set *)
         ()
     end);
  match t.config.Config.ordering with
  | Config.Fifo | Config.Causal -> final_deliver t pending
  | Config.Total_sequencer ->
    Total_order.Sequencer_queue.add_data e.seq_queue pending;
    if t.self = Group.member e.view 0 then begin
      let global_seq = e.next_global_seq in
      e.next_global_seq <- global_seq + 1;
      let order =
        Wire.Seq_order
          { view_id = e.view.Group.view_id; msg_id = data.Wire.msg_id; global_seq }
      in
      count_control t (Group.size e.view - 1);
      broadcast_proto t order;
      Total_order.Sequencer_queue.add_order e.seq_queue
        ~msg_id:data.Wire.msg_id ~global_seq
    end
  | Config.Total_lamport ->
    (match data.Wire.meta with
     | Wire.Lamport_meta stamp ->
       Total_order.Lamport_queue.add e.lamport_queue pending ~stamp;
       Total_order.Lamport_queue.observe_time e.lamport_queue
         ~rank:data.Wire.sender_rank stamp.Lamport.time
     | Wire.Fifo_meta | Wire.Causal_meta | Wire.Seq_meta | Wire.Pc_meta _ ->
       (* a misconfigured peer; deliver FIFO to stay live *)
       final_deliver t pending)
  end

let apply_deferred_gossip t =
  let e = t.epoch in
  let applicable, still_deferred =
    List.partition
      (fun (rank, required, _) -> Vector_clock.get e.vc rank >= required)
      e.deferred_lamport_gossip
  in
  e.deferred_lamport_gossip <- still_deferred;
  List.iter
    (fun (rank, _, time) ->
      Total_order.Lamport_queue.observe_time e.lamport_queue ~rank time)
    applicable

let rec drain_deliverables t =
  match Delivery_queue.take_deliverable t.epoch.queue ~local:t.epoch.vc with
  | Some pending ->
    causal_deliver t pending;
    drain_deliverables t
  | None ->
    (match t.config.Config.ordering with
     | Config.Total_lamport -> apply_deferred_gossip t
     | Config.Fifo | Config.Causal | Config.Total_sequencer -> ());
    release_total_queues t

let rec on_data t ?(src_rank = -1) (data : 'a Wire.data) =
  (* piggybacked predecessors are just data messages: feed them through the
     same path (duplicates are dropped by the seen-ids check) *)
  List.iter (fun d -> on_data t d) data.Wire.piggyback;
  t.metrics.Metrics.data_received <- t.metrics.Metrics.data_received + 1;
  let e = t.epoch in
  if data.Wire.view_id > e.view.Group.view_id then
    t.future_proto <-
      (data.Wire.view_id, Wire.Data data) :: t.future_proto
  else if data.Wire.view_id = e.view.Group.view_id
          && not (Hashtbl.mem e.seen data.Wire.msg_id)
  then begin
    match e.pc with
    | Some pc when Pc_causal.is_queued pc data.Wire.msg_id ->
      (* PC's forwarding redundancy: a copy of a message already sitting in
         the delivery queue; drop it before it reaches the queue *)
      Pc_causal.note_duplicate pc
    | _ ->
    (match data.Wire.meta with
     | Wire.Lamport_meta stamp -> ignore (Lamport.observe t.lamport stamp.Lamport.time)
     | Wire.Fifo_meta | Wire.Causal_meta | Wire.Seq_meta | Wire.Pc_meta _ -> ());
    let pending =
      { Delivery_queue.data; arrived_at = Engine.now t.engine }
    in
    (match t.shared.obs with
     | Some log ->
       Repro_obs.Log.span_recv log ~at:pending.Delivery_queue.arrived_at
         ~uid:data.Wire.msg_id ~pid:t.self
     | None -> ());
    if data.Wire.origin = t.self then
      (* A sender's own multicast is deliverable by construction — its
         dependencies are exactly what the sender had delivered when it was
         stamped — so it bypasses the delivery condition. Routing it through
         the queue instead can deadlock: a reaction multicast issued from a
         delivery that lands between another own-message's stamping and its
         local delivery would reuse the same sender sequence number (the
         clock had not advanced yet), and one of the twins then never
         satisfies the FIFO-gap condition anywhere. *)
      causal_deliver t pending
    else begin
      (match e.pc with
       | Some pc ->
         (* record the arrival link so the forward on delivery can skip it *)
         Pc_causal.note_queued pc ~msg_id:data.Wire.msg_id ~from_rank:src_rank
       | None -> ());
      Delivery_queue.add e.queue pending
    end;
    drain_deliverables t
  end
  else
    match e.pc with
    | Some pc when data.Wire.view_id = e.view.Group.view_id ->
      (* redundant copy of an already-delivered message *)
      Pc_causal.note_duplicate pc
    | _ -> ()

(* --- multicast ---------------------------------------------------------- *)

(* parallel msg_id layout: seq * 2^20 + pid — globally unique for up to a
   million processes, and independent of cross-member allocation order *)
let msg_id_pid_limit = 1 lsl 20

let make_data t payload =
  let msg_id =
    if t.parallel_ids then begin
      let seq = t.own_msg_seq in
      t.own_msg_seq <- seq + 1;
      (seq * msg_id_pid_limit) + t.self
    end
    else begin
      let id = t.shared.next_msg_id in
      t.shared.next_msg_id <- id + 1;
      id
    end
  in
  (match t.shared.obs with
   | Some log ->
     Repro_obs.Log.span_send log ~at:(Engine.now t.engine) ~uid:msg_id
       ~pid:t.self ~bytes:t.config.Config.payload_bytes
   | None -> ());
  (* one immutable snapshot per multicast, shared by every recipient *)
  let e = t.epoch in
  let vt, meta =
    match e.pc with
    | Some pc ->
      (* PC mode: the wire carries only (origin, origin_seq), and every
         layer reads the sequence through [Wire.seq]. The record's vt is
         the view's one all-zero stamp: it only carries the group size the
         codec ships, so a decoded record equals the sent one. *)
      let seq = Vector_clock.get e.vc e.rank + 1 in
      (Pc_causal.zero_stamp pc, Wire.Pc_meta { origin_seq = seq })
    | None ->
      let vt = Vector_clock.copy_tick e.vc e.rank in
      let meta =
        match t.config.Config.ordering with
        | Config.Fifo -> Wire.Fifo_meta
        | Config.Causal -> Wire.Causal_meta
        | Config.Total_sequencer -> Wire.Seq_meta
        | Config.Total_lamport ->
          Wire.Lamport_meta (Lamport.stamp t.lamport ~node:e.rank)
      in
      (vt, meta)
  in
  let piggyback =
    if t.config.Config.piggyback_history then
      (* footnote 4: carry our unstable causal predecessors so receivers
         can fill gaps locally instead of waiting *)
      List.map
        (fun (d : 'a Wire.data) -> { d with Wire.piggyback = [] })
        (Stability.unstable e.stability)
    else []
  in
  { Wire.msg_id; trace_id = msg_id; origin = t.self; sender_rank = e.rank;
    view_id = e.view.Group.view_id; vt; meta; payload;
    payload_bytes = t.config.Config.payload_bytes;
    sent_at = Engine.now t.engine; piggyback }

let account_send t data ~recipient_count =
  t.metrics.Metrics.multicasts_sent <- t.metrics.Metrics.multicasts_sent + 1;
  let overhead_per_copy =
    Wire.header_bytes data + (Wire.wire_bytes data - Wire.buffered_bytes data)
  in
  t.metrics.Metrics.header_bytes <-
    t.metrics.Metrics.header_bytes + (overhead_per_copy * recipient_count);
  (* encoded-vs-modeled delta: charge both the real codec size and the
     structural byte model for the same copies, so snapshot consumers can
     read the model's error directly. The codec run is behind the enabled
     check — a disabled registry must not pay an encode per multicast. *)
  (match t.bytes_of with
   | Some real_bytes when Repro_obs.Registry.enabled t.cells.registry ->
     Repro_obs.Registry.add t.cells.encoded_bytes
       (real_bytes data * recipient_count);
     Repro_obs.Registry.add t.cells.modeled_bytes
       (Wire.wire_bytes data * recipient_count)
   | Some _ | None -> ());
  register_in_graph t data

let do_multicast t payload =
  let data = make_data t payload in
  (match t.epoch.pc with
   | None ->
     account_send t data ~recipient_count:(Group.size t.epoch.view - 1);
     let wire = data_wire t data in
     iter_other_members t (fun dst ->
         send_copy t Repro_obs.Event.Origin_copy ~dst wire)
   | Some pc ->
     (* overlay dissemination: the initial copies go to our overlay
        neighbors only; forwarding on delivery carries them the rest of the
        way. Closed (barrier-pending) links are skipped — the pong-triggered
        unstable retransmission covers them. *)
     let stats = Pc_causal.stats pc in
     let wire = data_wire t data in
     let sent = ref 0 in
     Array.iter
       (fun r ->
         if Pc_causal.link_open pc ~peer_rank:r then begin
           incr sent;
           send_copy t Repro_obs.Event.Origin_copy
             ~dst:(Group.member t.epoch.view r) wire
         end
         else
           stats.Pc_causal.barrier_deferred <-
             stats.Pc_causal.barrier_deferred + 1)
       (Pc_causal.neighbors pc);
     account_send t data ~recipient_count:!sent);
  on_data t data

(* Transmit outbox entries in order; a multicast issued from a delivery
   callback mid-drain (while [t.installing]) re-enters the outbox and is
   picked up by the recursion, so intent order is preserved. *)
let rec drain_outbox t =
  match t.outbox with
  | [] -> t.installing <- false
  | payload :: rest ->
    t.outbox <- rest;
    do_multicast t payload;
    drain_outbox t

let multicast t payload =
  if t.ejected then ()
  else
    match t.status with
    | Normal when not t.installing -> do_multicast t payload
    | Normal | Flushing _ | Joining _ -> t.outbox <- t.outbox @ [ payload ]

let inject_partial_multicast t payload ~recipients =
  let recipients = List.filter (fun p -> p <> t.self) recipients in
  let data = make_data t payload in
  account_send t data ~recipient_count:(List.length recipients);
  let wire = data_wire t data in
  List.iter
    (fun dst -> send_copy t Repro_obs.Event.Origin_copy ~dst wire)
    recipients;
  (* the local copy goes through the same receive path *)
  on_data t data

let send_direct t ~dst payload = Endpoint.send_direct t.endpoint ~dst payload

(* --- gossip / stability -------------------------------------------------- *)

let send_gossip t =
  match t.status with
  | Flushing _ | Joining _ -> ()
  | Normal ->
    let e = t.epoch in
    let proto =
      Wire.Gossip
        { view_id = e.view.Group.view_id; rank = e.rank;
          vc = Vector_clock.copy e.vc; lamport = Lamport.value t.lamport }
    in
    count_control t (Group.size e.view - 1);
    Repro_obs.Registry.add t.cells.gossip_msgs (Group.size e.view - 1);
    broadcast_proto t proto;
    Stability.observe_vc e.stability ~live:true ~rank:e.rank
      ~now:(Engine.now t.engine) e.vc

let on_gossip t ~view_id ~rank ~vc ~lamport =
  let e = t.epoch in
  if view_id = e.view.Group.view_id then begin
    (* an encoded gossip vector is the codec's decode target, overwritten
       by the next decode: merge it by value. A structural one is a
       snapshot shared by every receiver, which a sparse clock adopts. *)
    let live =
      match t.config.Config.wire_format with
      | Config.Encoded -> true
      | Config.Structural -> false
    in
    Stability.observe_vc e.stability ~live ~rank ~now:(Engine.now t.engine) vc;
    ignore (Lamport.observe t.lamport lamport);
    (match t.config.Config.ordering with
     | Config.Total_lamport ->
       let gossiper_sent = Vector_clock.get vc rank in
       if Vector_clock.get e.vc rank >= gossiper_sent then
         Total_order.Lamport_queue.observe_time e.lamport_queue ~rank lamport
       else
         e.deferred_lamport_gossip <-
           (rank, gossiper_sent, lamport) :: e.deferred_lamport_gossip
     | Config.Fifo | Config.Causal | Config.Total_sequencer -> ());
    drain_deliverables t
  end

(* --- view change --------------------------------------------------------- *)

let coordinator_of survivors = List.fold_left min max_int survivors

let maybe_finish_flush t flush =
  if (not flush.done_sent)
     && List.for_all
          (fun p -> p = t.self || Pid_set.mem p flush.flush_from)
          flush.survivors
  then begin
    flush.done_sent <- true;
    let coordinator = coordinator_of flush.survivors in
    if t.self = coordinator then
      flush.done_from <- Pid_set.add t.self flush.done_from
    else
      send_view_change t [ coordinator ]
        (Wire.Flush_done { new_view_id = flush.new_view_id; from = t.self })
  end

let eject t =
  if not t.ejected then begin
    t.ejected <- true;
    t.cancel_gossip ();
    (* the application learns it was expelled through its own failure
       notification; it may re-join with a fresh stack *)
    t.callbacks.member_failed t.self
  end

(* The tail shared by a flush install and a joiner's install. [notify] is
   the caller's own work, run just before the view is announced. *)
let install_epoch t view ~prev_members ~notify =
  let e =
    make_epoch ~shared:t.shared ~config:t.config ~self:t.self
      ?bytes_of:t.bytes_of ~registry:t.cells.registry ~metrics:t.metrics
      ~prev_members view
  in
  t.epoch <- e;
  t.status <- Normal;
  t.installing <- true;
  (* start the ping/pong barrier on every link [make_epoch] left closed *)
  (match e.pc with
   | None -> ()
   | Some pc ->
     let stats = Pc_causal.stats pc in
     List.iter
       (fun peer_rank ->
         stats.Pc_causal.pings_sent <- stats.Pc_causal.pings_sent + 1;
         count_control t 1;
         send_proto t ~dst:(Group.member view peer_rank)
           (Wire.Pc_ping { view_id = view.Group.view_id; from_rank = e.rank }))
       (Pc_causal.fresh_links pc));
  t.metrics.Metrics.view_changes <- t.metrics.Metrics.view_changes + 1;
  Repro_obs.Registry.incr t.cells.c_view_changes;
  notify ();
  t.callbacks.view_change view;
  (* replay messages that arrived for this view before we installed it *)
  let view_id = view.Group.view_id in
  let ready, later =
    List.partition (fun (vid, _) -> vid = view_id) t.future_proto
  in
  t.future_proto <- List.filter (fun (vid, _) -> vid > view_id) later;
  List.iter (fun (_, proto) -> t.replay_proto proto) (List.rev ready);
  drain_outbox t

let rec install_view t flush =
  note_flush t Repro_obs.Log.flush_end ~view_id:flush.new_view_id;
  let e = t.epoch in
  (* Anything still blocked is undeliverable in the old view: the flush
     guaranteed every survivor holds the same message set, so dropping the
     remainder is group-consistent. This drop IS the atomicity-without-
     durability gap of Section 2. *)
  let leftover_causal = Delivery_queue.drain e.queue in
  let leftover_seq = Total_order.Sequencer_queue.drain e.seq_queue in
  let leftover_lamport = Total_order.Lamport_queue.drain e.lamport_queue in
  (* Sequencer/Lamport leftovers were causally delivered but unordered;
     every survivor holds the identical set, so deliver them in stamping /
     Lamport-stamp order (deterministic and identical everywhere). *)
  List.iter (final_deliver t) leftover_seq;
  List.iter (final_deliver t) leftover_lamport;
  t.metrics.Metrics.dropped_at_view_change <-
    t.metrics.Metrics.dropped_at_view_change + List.length leftover_causal;
  (match t.shared.graph with
   | Some graph ->
     List.iter
       (fun (d : 'a Wire.data) -> Causality.remove_stable graph d.Wire.msg_id)
       (Stability.unstable e.stability)
   | None -> ());
  let old_members = Array.to_list e.view.Group.members in
  if not (List.mem t.self flush.new_members) then begin
    (* the agreed view excludes us: false suspicion or late recovery *)
    t.status <- Normal;
    eject t
  end
  else begin
  (* Deliver data from views this member skipped — its flush was restarted
     onto a later round before the intermediate New_view arrived. The new
     round's flush supplied every message the intermediate views' members
     delivered (nothing from those views can have stabilised, since this
     member never acknowledged them), so delivering here — in stamping
     order, which is causality-consistent under both msg-id schemes —
     keeps delivery all-or-none across the group. Dropping them instead
     would lose messages peers delivered in the skipped view. None of them
     can have been delivered yet (their view was never installed here);
     final_deliver drops the repeated copies. *)
  let skipped, remaining =
    List.partition (fun (vid, _) -> vid < flush.new_view_id) t.future_proto
  in
  t.future_proto <- remaining;
  skipped
  |> List.filter_map (function _, Wire.Data d -> Some d | _ -> None)
  |> List.sort Wire.compare_stamping
  |> List.iter (fun d ->
         final_deliver t
           { Delivery_queue.data = d; arrived_at = Engine.now t.engine });
  let new_view = Group.make_view ~view_id:flush.new_view_id flush.new_members in
  let removed = List.filter (fun p -> not (Group.mem new_view p)) old_members in
  install_epoch t new_view ~prev_members:(Pid_set.of_list old_members)
    ~notify:(fun () ->
      t.metrics.Metrics.suppressed_us <-
        t.metrics.Metrics.suppressed_us
        + Sim_time.sub (Engine.now t.engine) flush.started_at;
      List.iter (fun p -> t.callbacks.member_failed p) removed);
  if t.pending_joins <> [] then
    (* admit joiners that queued up during the flush in a fresh round *)
    Engine.after t.engine ~owner:t.self (Sim_time.us 1) (fun () ->
        trigger_pending_joins t)
  end

(* Enter a flush round with an agreed survivor set. The round's initiator
   computes the set; members that learn of the round from a Flush message
   adopt the set carried in it, so staggered failure detection still
   converges on one view. *)
and begin_flush t ~new_view_id ~survivors ~new_members =
  (* a restart abandons the round in progress: close its telemetry span
     before opening the new one *)
  (match t.status with
   | Flushing f when f.new_view_id <> new_view_id ->
     note_flush t Repro_obs.Log.flush_end ~view_id:f.new_view_id
   | Flushing _ | Normal | Joining _ -> ());
  note_flush t Repro_obs.Log.flush_start ~view_id:new_view_id;
  Repro_obs.Registry.incr t.cells.c_flushes;
  let survivor_set = Pid_set.of_list survivors in
  let flush =
    { new_view_id; survivors; survivor_set; new_members;
      flush_from = Pid_set.of_list [ t.self ];
      done_from = Pid_set.empty; done_sent = false;
      started_at = Engine.now t.engine }
  in
  t.status <- Flushing flush;
  let e = t.epoch in
  (* anyone the agreed set excludes is de facto failed *)
  t.failed_members <-
    Array.fold_left
      (fun acc p ->
        if Pid_set.mem p survivor_set then acc else Pid_set.add p acc)
      t.failed_members e.view.Group.members;
  (* The flush contribution is everything this member HOLDS from the old
     view: its unstable sent-or-delivered messages, plus messages still
     blocked in its delivery queue. The queue contents matter when the
     blocking dependency arrives mid-flush (say, right after a partition
     heals): the member then delivers the blocked message during the flush,
     and if its original sender crashed, no retransmission exists — peers
     can only learn of it from this exchange. *)
  let unstable =
    Stability.unstable e.stability
    @ List.map
        (fun (p : 'a Delivery_queue.pending) -> p.Delivery_queue.data)
        (Delivery_queue.to_list e.queue)
  in
  let orders = Total_order.Sequencer_queue.known_orders e.seq_queue in
  let proto = Wire.Flush { new_view_id; survivors; unstable; orders } in
  send_view_change t (List.filter (fun p -> p <> t.self) survivors) proto;
  (* a member left behind on a stale round (everyone else moved on without
     it, e.g. after a false suspicion) must not hang forever *)
  Engine.after t.engine ~owner:t.self (Sim_time.seconds 1) (fun () ->
      match t.status with
      | Flushing f when f == flush -> eject t
      | Flushing _ | Normal | Joining _ -> ());
  match survivors with
  | [ only ] when only = t.self ->
    (* alone: no peers to flush with; install immediately *)
    flush.done_sent <- true;
    install_view t flush
  | _ -> maybe_finish_flush t flush

(* A view change covers both directions of membership: [failed] removes a
   member (detected crash), [joined] admits new ones. The flush itself is
   always between the current live members; joiners receive the new view
   plus a state transfer once the flush completes. *)
and start_view_change t ~failed ~joined =
  (match failed with
   | Some pid -> t.failed_members <- Pid_set.add pid t.failed_members
   | None -> ());
  let joined = joined @ t.pending_joins in
  t.pending_joins <- [];
  (* a recovered process may re-join under its old pid: admitting it
     supersedes its failure record *)
  t.failed_members <-
    List.fold_left (fun acc j -> Pid_set.remove j acc) t.failed_members joined;
  let view = t.epoch.view in
  let new_view_id =
    match t.status with
    | Normal | Joining _ -> view.Group.view_id + 1
    | Flushing f -> f.new_view_id + 1
  in
  let survivors =
    Array.to_list view.Group.members
    |> List.filter (fun p -> not (Pid_set.mem p t.failed_members))
  in
  let survivor_set = Pid_set.of_list survivors in
  let new_members =
    survivors
    @ List.filter
        (fun j ->
          (not (Pid_set.mem j survivor_set))
          && not (Pid_set.mem j t.failed_members))
        (List.sort_uniq Int.compare joined)
  in
  begin_flush t ~new_view_id ~survivors ~new_members

and trigger_pending_joins t =
  match t.status with
  | Normal
    when t.pending_joins <> [] && t.self = Group.coordinator t.epoch.view ->
    start_view_change t ~failed:None ~joined:[]
  | Normal | Flushing _ | Joining _ -> ()

let rec on_flush t ~src ~new_view_id ~survivors ~unstable ~orders =
  (match t.status with
   | Normal when new_view_id > t.epoch.view.Group.view_id ->
     (* a peer started a view change we have no local trigger for (a join,
        or a failure we have not detected yet): adopt its round *)
     begin_flush t ~new_view_id ~survivors ~new_members:survivors
   | Flushing f when new_view_id > f.new_view_id ->
     (* the group moved on to a later round (another failure detected
        elsewhere): restart on it *)
     begin_flush t ~new_view_id ~survivors ~new_members:survivors
   | Normal | Flushing _ | Joining _ -> ());
  match t.status with
  | Flushing flush when flush.new_view_id = new_view_id ->
    (* Adopt the peer's knowledge of the sequencer's assignments before
       feeding it the data: if the sequencer crashed after reaching only
       some members, everyone must still release in its order rather than
       fall back to the view-change tiebreak for messages it had placed. *)
    List.iter
      (fun (msg_id, global_seq) ->
        Total_order.Sequencer_queue.add_order t.epoch.seq_queue ~msg_id
          ~global_seq)
      orders;
    List.iter (fun data -> on_data t data) unstable;
    release_total_queues t;
    flush.flush_from <- Pid_set.add src flush.flush_from;
    maybe_finish_flush t flush;
    (* the coordinator may already have everyone's done *)
    (match t.status with
     | Flushing f
       when f.new_view_id = new_view_id
            && t.self = coordinator_of f.survivors
            && Pid_set.cardinal f.done_from >= List.length f.survivors ->
       broadcast_new_view t f
     | Flushing _ | Normal | Joining _ -> ())
  | Flushing _ | Normal | Joining _ -> ()

and broadcast_new_view t flush =
  let joiners =
    List.filter
      (fun p -> not (Pid_set.mem p flush.survivor_set))
      flush.new_members
  in
  (* install first so the state snapshot reflects every old-view delivery *)
  install_view t flush;
  send_view_change t
    (List.filter (fun p -> p <> t.self) flush.new_members)
    (Wire.New_view { view_id = flush.new_view_id; members = flush.new_members });
  match joiners with
  | [] -> ()
  | _ :: _ ->
    send_view_change t joiners
      (Wire.State_transfer
         { view_id = flush.new_view_id; state = t.get_state () })

let on_flush_done t ~new_view_id ~from =
  match t.status with
  | Flushing flush
    when flush.new_view_id = new_view_id
         && t.self = coordinator_of flush.survivors ->
    flush.done_from <- Pid_set.add from flush.done_from;
    if Pid_set.cardinal flush.done_from >= List.length flush.survivors then
      broadcast_new_view t flush
  | Flushing _ | Normal | Joining _ -> ()

let maybe_install_join t join =
  match (join.pending_view, join.pending_state) with
  | Some (view_id, members), Some (state_view, state) when view_id = state_view ->
    (* a joiner is new to every link: the full barrier runs on each of them *)
    install_epoch t (Group.make_view ~view_id members)
      ~prev_members:Pid_set.empty ~notify:(fun () -> t.set_state state)
  | _ -> ()

let on_new_view t ~view_id ~members =
  if not (List.mem t.self members) then begin
    (match t.status with
     | Flushing f ->
       note_flush t Repro_obs.Log.flush_end ~view_id:f.new_view_id;
       t.status <- Normal
     | Normal | Joining _ -> ());
    eject t
  end
  else
  match t.status with
  | Flushing flush when flush.new_view_id = view_id ->
    install_view t
      { flush with survivors = members;
        survivor_set = Pid_set.of_list members; new_members = members }
  | Joining join ->
    (match join.pending_view with
     | Some (existing, _) when existing >= view_id -> ()
     | Some _ | None ->
       join.pending_view <- Some (view_id, members);
       maybe_install_join t join)
  | Flushing _ | Normal -> ()

let on_state_transfer t ~view_id ~state =
  match t.status with
  | Joining join ->
    (match join.pending_state with
     | Some (existing, _) when existing >= view_id -> ()
     | Some _ | None ->
       join.pending_state <- Some (view_id, state);
       maybe_install_join t join)
  | Flushing _ | Normal -> ()

let on_join_request t ~joiner =
  let view = t.epoch.view in
  if Group.mem view joiner then ()
  else begin
    let coordinator = Group.coordinator view in
    if t.self <> coordinator then
      (* not ours to coordinate: forward *)
      send_proto t ~dst:coordinator (Wire.Join_request { joiner })
    else
      match t.status with
      | Normal -> start_view_change t ~failed:None ~joined:[ joiner ]
      | Flushing _ | Joining _ ->
        if not (List.mem joiner t.pending_joins) then
          t.pending_joins <- joiner :: t.pending_joins
  end

(* --- wiring -------------------------------------------------------------- *)

(* [true] iff [view_id] is the installed view; a message for a later view
   waits in [future_proto] for its install *)
let in_view t ~view_id proto =
  let current = t.epoch.view.Group.view_id in
  if view_id > current then
    t.future_proto <- (view_id, proto) :: t.future_proto;
  view_id = current

let handle_proto t ~src (proto : 'a Wire.proto) =
  if t.ejected then ()
  else begin
    (match t.last_seen with
     | Some last_seen when src >= 0 ->
       Hashtbl.replace last_seen src (Engine.now t.engine)
     | Some _ | None -> ());
    match proto with
  | Wire.Data data ->
    (* the transport-level sender (origin or PC forwarder), as a rank in the
       current view; -1 for replays and senders outside the view *)
    let view = t.epoch.view in
    let src_rank =
      if src >= 0 && Group.mem view src then Group.rank_of_exn view src
      else -1
    in
    on_data t ~src_rank data
  | Wire.Pc_ping { view_id; from_rank } ->
    if in_view t ~view_id proto then (
      let e = t.epoch in
      match e.pc with
      | Some pc ->
        let stats = Pc_causal.stats pc in
        stats.Pc_causal.pongs_sent <- stats.Pc_causal.pongs_sent + 1;
        count_control t 1;
        send_proto t ~dst:(Group.member e.view from_rank)
          (Wire.Pc_pong
             { view_id; from_rank = e.rank;
               delivered = Vector_clock.copy e.vc })
      | None -> ())
  | Wire.Pc_pong { view_id; from_rank; delivered } ->
    if in_view t ~view_id proto then (
      let e = t.epoch in
      match e.pc with
      | Some pc when not (Pc_causal.link_open pc ~peer_rank:from_rank) ->
        Pc_causal.open_link pc ~peer_rank:from_rank;
        (* open_link is a no-op for a non-neighbor; re-check before
           retransmitting anything *)
        if Pc_causal.link_open pc ~peer_rank:from_rank then begin
          (* Start the fresh link FIFO-causal: resend exactly the messages
             the peer's delivered-counts say it lacks, in stamping order
             (causally consistent under both msg-id schemes). The unstable
             buffer is a complete source — anything the peer is missing
             cannot have stabilised, since stability requires delivery by
             every member including the peer. *)
          let missing =
            Pc_causal.missing_for ~delivered (Stability.unstable e.stability)
          in
          let stats = Pc_causal.stats pc in
          stats.Pc_causal.barrier_retransmits <-
            stats.Pc_causal.barrier_retransmits + List.length missing;
          let dst = Group.member e.view from_rank in
          List.iter
            (fun d ->
              send_copy t Repro_obs.Event.Resend_copy ~dst (data_wire t d))
            missing
        end
      | Some _ | None -> ())
  | Wire.Seq_order { view_id; msg_id; global_seq } ->
    if in_view t ~view_id proto then begin
      Total_order.Sequencer_queue.add_order t.epoch.seq_queue ~msg_id
        ~global_seq;
      release_total_queues t
    end
  | Wire.Gossip { view_id; rank; vc; lamport } ->
    on_gossip t ~view_id ~rank ~vc ~lamport
  | Wire.Flush { new_view_id; survivors; unstable; orders } ->
    on_flush t ~src ~new_view_id ~survivors ~unstable ~orders
  | Wire.Flush_done { new_view_id; from } -> on_flush_done t ~new_view_id ~from
  | Wire.New_view { view_id; members } -> on_new_view t ~view_id ~members
  | Wire.Join_request { joiner } -> on_join_request t ~joiner
  | Wire.State_transfer { view_id; state } -> on_state_transfer t ~view_id ~state
  end

let create ?endpoint:shared_endpoint ?payload_codec ~engine ~shared ~config
    ~view ~self ~callbacks () =
  let parallel_ids =
    match Engine.impl engine with
    | Engine.Sequential -> false
    | Engine.Parallel _ ->
      (* cross-member mutable state the lanes would race on: the shared
         causal graph (and its id index) and the group telemetry log *)
      if config.Config.track_graph then
        invalid_arg "Stack.create: track_graph needs the sequential engine";
      (match shared.obs with
       | Some log when not (Repro_obs.Log.synchronized log) ->
         (* a mutex-guarded log is lane-safe: record order is scheduler-
            dependent but the record set is not, so sorted consumers
            (trace trees, watchdogs, fingerprints) stay deterministic *)
         invalid_arg
           "Stack.create: group telemetry under the parallel engine needs \
            Log.create ~synchronized:true"
       | Some _ | None -> ());
      if self >= msg_id_pid_limit then
        invalid_arg "Stack.create: pid too large for parallel msg_ids";
      true
  in
  let metrics = Metrics.create () in
  let cells = make_reg_cells config in
  let codec =
    match (config.Config.wire_format, payload_codec) with
    | Config.Structural, _ -> None
    | Config.Encoded, Some pc -> Some (Wire_codec.create pc)
    | Config.Encoded, None ->
      invalid_arg "Stack.create: Encoded wire format needs ~payload_codec"
  in
  let bytes_of = Option.map (fun c -> Wire_codec.data_bytes c) codec in
  (* every initial member is "carried over": links start open, no barrier *)
  let prev_members = Pid_set.of_list (Array.to_list view.Group.members) in
  let epoch =
    make_epoch ~shared ~config ~self ?bytes_of ~registry:cells.registry
      ~metrics ~prev_members view
  in
  let endpoint =
    match shared_endpoint with
    | Some e -> e
    | None ->
      let framing =
        Option.map
          (fun c ->
            { Transport.frame = Wire_codec.encode c;
              unframe = Wire_codec.decode c })
          codec
      in
      Endpoint.create ?obs:shared.obs ~registry:cells.registry ?framing
        ~engine ~self ~mode:config.Config.transport ()
  in
  let last_seen =
    match config.Config.failure_detection with
    | Config.Oracle -> None
    | Config.Heartbeat _ -> Some (Hashtbl.create 16)
  in
  let t =
    { engine; shared; config; self; callbacks; metrics; cells; bytes_of;
      parallel_ids; own_msg_seq = 0; lamport = Lamport.create (); endpoint;
      epoch; status = Normal; outbox = []; installing = false;
      failed_members = Pid_set.empty; future_proto = [];
      replay_proto = (fun _ -> ()); pending_joins = [];
      get_state = (fun () -> ""); set_state = (fun _ -> ());
      cancel_gossip = (fun () -> ()); ejected = false; last_seen }
  in
  if Option.is_none shared_endpoint then
    Endpoint.set_on_direct endpoint (fun ~src payload ->
        t.callbacks.direct ~src payload);
  Endpoint.register_group endpoint ~group:shared.group_id (fun ~src proto ->
      handle_proto t ~src proto);
  t.cancel_gossip <-
    Engine.every engine ~owner:self ~period:config.Config.gossip_period
      (fun () -> send_gossip t);
  t.replay_proto <- (fun proto -> handle_proto t ~src:(-1) proto);
  (match (config.Config.failure_detection, last_seen) with
   | Config.Heartbeat { period; timeout }, Some last_seen ->
     (* the stability gossip doubles as the heartbeat; a peer silent past
        the timeout is suspected. Detection is per-observer: peers learn of
        the round from the Flush message and adopt its survivor set. *)
     let created_at = Engine.now engine in
     let check () =
       if (not t.ejected) && Engine.is_alive engine self then begin
         let now = Engine.now engine in
         Array.iter
           (fun peer ->
             if peer <> self && not (Pid_set.mem peer t.failed_members) then begin
               let last =
                 Option.value ~default:created_at
                   (Hashtbl.find_opt last_seen peer)
               in
               if Sim_time.sub now last > timeout then
                 start_view_change t ~failed:(Some peer) ~joined:[]
             end)
           t.epoch.view.Group.members
       end
     in
     let (_cancel : unit -> unit) =
       Engine.every engine ~owner:self ~period check
     in
     ()
   | Config.Oracle, _ | Config.Heartbeat _, None ->
     Engine.on_failure engine (fun pid ->
         if Engine.is_alive engine self && Group.mem t.epoch.view pid
            && pid <> self
         then start_view_change t ~failed:(Some pid) ~joined:[]));
  t

let set_state_handlers t ~get ~set =
  t.get_state <- get;
  t.set_state <- set

let join ?endpoint:shared_endpoint ?payload_codec ~engine ~shared ~config
    ~self ~contact ~callbacks () =
  let placeholder = Group.make_view ~view_id:(-1) [ self ] in
  let t =
    create ?endpoint:shared_endpoint ?payload_codec ~engine ~shared ~config
      ~view:placeholder ~self ~callbacks ()
  in
  let join_state = { pending_view = None; pending_state = None } in
  t.status <- Joining join_state;
  (* retry until admitted: the contact (or the join round) may fail *)
  let rec request () =
    match t.status with
    | Joining _ ->
      send_proto t ~dst:contact (Wire.Join_request { joiner = self });
      Engine.after engine ~owner:self (Sim_time.ms 500) request
    | Normal | Flushing _ -> ()
  in
  request ();
  t

let shutdown t =
  t.cancel_gossip ();
  t.callbacks <- null_callbacks

let create_group ?obs ?payload_codec ~engine ~config ~names ~make_callbacks
    () =
  let pids =
    List.map (fun n -> Engine.spawn engine ~name:n (fun _ _ -> ())) names
  in
  let view = Group.make_view ~view_id:0 pids in
  let shared = make_shared ?obs config in
  List.map
    (fun pid ->
      create ?payload_codec ~engine ~shared ~config ~view ~self:pid
        ~callbacks:(make_callbacks pid) ())
    pids
