(* The composition of one member's protocol instance: construction, the
   accessors and the dispatch of each proto to its layer. The member state
   and the send helpers live in [Member], ordered delivery and multicast in
   [Delivery], each view's total order in [Total_order], membership and the
   flush in [View_change]. *)

open Member

type 'a callbacks = 'a Member.callbacks = {
  deliver : sender:Engine.pid -> 'a -> unit;
  view_change : Group.view -> unit;
  member_failed : Engine.pid -> unit;
  direct : src:Engine.pid -> 'a -> unit;
}

type shared = Member.shared
type 'a t = 'a Member.t

let null_callbacks =
  { deliver = (fun ~sender:_ _ -> ());
    view_change = (fun _ -> ());
    member_failed = (fun _ -> ());
    direct = (fun ~src:_ _ -> ()) }

let chaos_drop_forward_copy_metric = Member.chaos_drop_forward_copy_metric

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

let self t = t.self
let shared_of t = t.shared
let config_of t = t.config
let view t = t.epoch.view
let metrics t = t.metrics
let registry t = t.cells.registry
let unstable_count t = Stability.unstable_count t.epoch.stability
let stability_clock t = Stability.matrix t.epoch.stability
let set_callbacks t callbacks = t.callbacks <- callbacks

(* both summands are maintained counters, so this is safe to call from
   periodic metrics samplers without touching queue contents *)
let pending_count t =
  let e = t.epoch in
  Delivery_queue.length e.queue + Total_order.length e.total

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

let pc_stats t = Option.map Pc_causal.stats t.epoch.pc

let pc_neighbors t = Option.map Pc_causal.neighbors t.epoch.pc

let multicast = Delivery.multicast
let inject_partial_multicast = Delivery.inject_partial_multicast
let send_direct t ~dst payload = Endpoint.send_direct t.endpoint ~dst payload

let handle_proto t ~src (proto : 'a Wire.proto) =
  if t.ejected then ()
  else begin
    (match t.last_seen with
     | Some last_seen when src >= 0 ->
       Hashtbl.replace last_seen src (Engine.now t.engine)
     | Some _ | None -> ());
    match proto with
    | Wire.Data _ | Wire.Gossip _ | Wire.Seq_order _ | Wire.Pc_ping _
    | Wire.Pc_pong _ ->
      Delivery.handle_proto t ~src proto
    | Wire.Flush { new_view_id; survivors; unstable; orders } ->
      View_change.on_flush t ~src ~new_view_id ~survivors ~unstable ~orders
    | Wire.Flush_done { new_view_id; from } ->
      View_change.on_flush_done t ~new_view_id ~from
    | Wire.New_view { view_id; members } ->
      View_change.on_new_view t ~view_id ~members
    | Wire.Join_request { joiner } -> View_change.on_join_request t ~joiner
    | Wire.State_transfer { view_id; state } ->
      View_change.on_state_transfer t ~view_id ~state
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
      if self >= Delivery.msg_id_pid_limit then
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
      failed_members = Pid_set.empty; future_proto = []; pending_joins = [];
      get_state = (fun () -> ""); set_state = (fun _ -> ());
      cancel_timers = (fun () -> ()); ejected = false; last_seen }
  in
  if Option.is_none shared_endpoint then
    Endpoint.set_on_direct endpoint (fun ~src payload ->
        t.callbacks.direct ~src payload);
  Endpoint.register_group endpoint ~group:shared.group_id
    ~lists:(fun p -> Group.mem t.epoch.view p)
    (fun ~src proto -> handle_proto t ~src proto);
  let cancel_gossip =
    Engine.every engine ~owner:self ~period:config.Config.gossip_period
      (fun () -> Delivery.send_gossip t)
  in
  let cancel_heartbeat = View_change.watch_failures t in
  t.cancel_timers <- (fun () -> cancel_gossip (); cancel_heartbeat ());
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
  (* retry until admitted: the contact (or the join round) may fail; a
     stack shut down or ejected meanwhile stops asking *)
  let rec request () =
    match t.status with
    | Joining _ when not t.ejected ->
      send_proto t ~dst:contact (Wire.Join_request { joiner = self });
      Engine.after engine ~owner:self (Sim_time.ms 500) request
    | Joining _ | Normal | Flushing _ -> ()
  in
  request ();
  t

let shutdown t =
  t.ejected <- true;
  t.cancel_timers ();
  t.callbacks <- null_callbacks

let create_group ?obs ?payload_codec ~engine ~config ~names () =
  let pids =
    List.map (fun n -> Engine.spawn engine ~name:n (fun _ _ -> ())) names
  in
  let view = Group.make_view ~view_id:0 pids in
  let shared = make_shared ?obs config in
  Array.map
    (fun pid ->
      create ?payload_codec ~engine ~shared ~config ~view ~self:pid
        ~callbacks:null_callbacks ())
    (Array.of_list pids)
