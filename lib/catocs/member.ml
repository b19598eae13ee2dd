(* One group member's protocol state, shared by the layers that act on it:
   [Delivery] (ordered delivery, multicast, gossip) and [View_change]
   (flush, join, failure detection); [Stack] composes them. Each view's
   total-order state is a [Total_order.t]. Besides the types this module
   holds only constructors and the send helpers both layers use. *)

type 'a callbacks = {
  deliver : sender:Engine.pid -> 'a -> unit;
  view_change : Group.view -> unit;
  member_failed : Engine.pid -> unit;
  direct : src:Engine.pid -> 'a -> unit;
}

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
  total : 'a Total_order.t;
  stability : 'a Stability.t;
  seen : (Wire.msg_id, bool) Hashtbl.t;
      (* this view's messages past causal delivery: [false] while one waits
         for its total order, [true] once handed to the application. A copy
         arriving in the [false] window must not re-run causal delivery: the
         vc update of an own-message duplicate can move the clock backwards
         and wedge every later message from that sender. Per view suffices:
         reads are gated on the installed view, and the old view's leftover
         and skipped-view deliveries run before the swap. *)
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
      (* inside [View_change.install_epoch]: application callbacks fire
         while the outbox is not yet drained, so multicasts they issue must
         keep queueing or they would be stamped ahead of sends suppressed
         during the flush — a per-sender FIFO inversion *)
  mutable failed_members : Pid_set.t;
  mutable future_proto : (int * 'a Wire.proto) list;
      (* data-path messages (Data, Seq_order, Pc_ping, Pc_pong) from a view
         this member has not installed yet: peers that finish the flush
         first may multicast in the new view before our New_view arrives;
         dropping them would leave a permanent causal gap. The install
         replays them through [Delivery.handle_proto]. *)
  mutable pending_joins : Engine.pid list;
      (* join requests received during a flush, admitted in the next round *)
  mutable get_state : unit -> string;
      (* application state snapshot handed to joiners (see
         [Stack.set_state_handlers]) *)
  mutable set_state : string -> unit;
  mutable cancel_timers : unit -> unit;
      (* stops the gossip timer and, under heartbeat detection, the
         failure check *)
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
   barrier ([View_change.install_epoch]) before data flows on it. At group
   creation every member is carried over, so all links start open. *)
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
    total = Total_order.create ?obs config.Config.ordering ~rank ~group_size;
    stability =
      Stability.create ~clock ?bytes_of ?obs ~registry ~group_size ~metrics
        ~graph:shared.graph ();
    seen = Hashtbl.create 256 }

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
    | Wire.Proto _ | Wire.Direct _ -> invalid_arg "Member.send_copy: not data"
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
