(* The membership layer: the flush-based view change (Section 2's
   atomicity gap opens here), joins with state transfer, ejection, and the
   failure detector that starts a round. Deliveries the flush forces go
   through [Delivery]. *)

open Member

let note_flush t mark ~view_id =
  match t.shared.obs with
  | Some log -> mark log ~at:(Engine.now t.engine) ~pid:t.self ~view_id
  | None -> ()

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
    t.cancel_timers ();
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
  (* a recovered process may re-join under its old pid, and only the join
     coordinator's [start_view_change] clears its failure record: every
     member drops it here, or the next failure's survivor sets disagree.
     A stale [last_seen] would get a re-admitted pid suspected at once, so
     a member new to the view is last seen now. *)
  let now = Engine.now t.engine in
  Array.iter
    (fun p ->
      t.failed_members <- Pid_set.remove p t.failed_members;
      match t.last_seen with
      | Some last_seen when not (Pid_set.mem p prev_members) ->
        Hashtbl.replace last_seen p now
      | Some _ | None -> ())
    view.Group.members;
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
  List.iter
    (fun (_, proto) ->
      (* an ejected stack is inert *)
      if not t.ejected then Delivery.handle_proto t ~src:(-1) proto)
    (List.rev ready);
  Delivery.drain_outbox t

let rec install_view t flush =
  note_flush t Repro_obs.Log.flush_end ~view_id:flush.new_view_id;
  let e = t.epoch in
  (* Anything still blocked is undeliverable in the old view: the flush
     guaranteed every survivor holds the same message set, so dropping the
     remainder is group-consistent. This drop IS the atomicity-without-
     durability gap of Section 2. *)
  let leftover_causal = Delivery_queue.drain e.queue in
  (* Total-order leftovers were causally delivered but unordered; every
     survivor holds the identical set, so deliver them in stamping /
     Lamport-stamp order (deterministic and identical everywhere). A
     Lamport leftover whose causal predecessor no survivor holds is dropped
     like the blocked causal ones. *)
  let held = Total_order.length e.total in
  let leftover_total = Total_order.drain e.total ~delivered:e.vc in
  List.iter (Delivery.final_deliver t) leftover_total;
  t.metrics.Metrics.dropped_at_view_change <-
    t.metrics.Metrics.dropped_at_view_change + List.length leftover_causal
    + held - List.length leftover_total;
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
     onto a later round before the intermediate New_view arrived. The
     round's flush supplied every message the intermediate views' members
     delivered (nothing from those views can have stabilised, since this
     member never acknowledged them) and their sequencer orders. Every
     survivor's flush message also carries what it held of those views,
     and [Delivery.on_data] drops what arrives later, so all survivors
     hold the same messages. Delivering them here, view by view in the
     order those members used, keeps delivery all-or-none and the total
     order group-wide. Dropping them instead would lose messages peers
     delivered in the skipped view. None of them can have been delivered
     yet (their view was never installed here); final_deliver drops the
     repeated copies. *)
  let skipped, remaining =
    List.partition (fun (vid, _) -> vid < flush.new_view_id) t.future_proto
  in
  t.future_proto <- remaining;
  let now = Engine.now t.engine in
  List.iter
    (fun vid ->
      let data, orders =
        List.fold_left
          (fun (data, orders) (v, proto) ->
            match proto with
            | Wire.Data d when v = vid ->
              ({ Delivery_queue.data = d; arrived_at = now } :: data, orders)
            | Wire.Seq_order { msg_id; global_seq; _ } when v = vid ->
              (data, (msg_id, global_seq) :: orders)
            | _ -> (data, orders))
          ([], []) skipped
      in
      List.iter (Delivery.final_deliver t)
        (Total_order.replay_view t.config.Config.ordering
           ~mode:(queue_mode t.config) ~orders data))
    (List.sort_uniq Int.compare (List.map fst skipped));
  let new_view = Group.make_view ~view_id:flush.new_view_id flush.new_members in
  let removed = List.filter (fun p -> not (Group.mem new_view p)) old_members in
  install_epoch t new_view ~prev_members:(Pid_set.of_list old_members)
    ~notify:(fun () ->
      t.metrics.Metrics.suppressed_us <-
        t.metrics.Metrics.suppressed_us
        + Sim_time.sub (Engine.now t.engine) flush.started_at;
      List.iter (fun p -> t.callbacks.member_failed p) removed);
  (* stop resending to the members the view removed *)
  List.iter (Endpoint.peer_left t.endpoint) removed;
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
  (* It also hands on what it holds of the views it will skip, received
     directly or in the flush of a round this one restarts: see the
     skipped-view delivery in [install_view]. *)
  let skipped =
    List.filter (fun (vid, _) -> vid < new_view_id) t.future_proto
  in
  let unstable =
    List.rev_append
      (List.filter_map (function _, Wire.Data d -> Some d | _ -> None) skipped)
      (Stability.unstable e.stability
      @ List.map
          (fun (p : 'a Delivery_queue.pending) -> p.Delivery_queue.data)
          (Delivery_queue.to_list e.queue))
  in
  let orders =
    List.rev_append
      (List.filter_map
         (function
           | vid, Wire.Seq_order { msg_id; global_seq; _ } ->
             Some (vid, msg_id, global_seq)
           | _ -> None)
         skipped)
      (Total_order.known_orders e.total ~view_id:e.view.Group.view_id)
  in
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
  let joined =
    match t.status with
    | Flushing f ->
      (* a restart keeps the joiners the abandoned round was admitting;
         rebuilt from [joined] alone they would wait for their retry *)
      List.filter (fun p -> not (Pid_set.mem p f.survivor_set)) f.new_members
      @ joined @ t.pending_joins
    | Normal | Joining _ -> joined @ t.pending_joins
  in
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
       fall back to the view-change tiebreak for messages it had placed.
       Global sequence numbers restart per view, so only orders of the
       installed view go into its queue. A later view's, and its data, wait
       for the skipped-view delivery in [install_view], but only from a
       member of the round's survivor set: every survivor waits for those
       flush messages, and for no other. An earlier view's orders were
       settled at this member's own install. *)
    let current = t.epoch.view.Group.view_id in
    let skip vid proto =
      if Pid_set.mem src flush.survivor_set then
        t.future_proto <- (vid, proto) :: t.future_proto
    in
    List.iter
      (fun (view_id, msg_id, global_seq) ->
        if view_id = current then
          Total_order.add_order t.epoch.total ~msg_id ~global_seq
        else if view_id > current then
          skip view_id (Wire.Seq_order { view_id; msg_id; global_seq }))
      orders;
    List.iter
      (fun (data : _ Wire.data) ->
        if data.Wire.view_id > current then
          skip data.Wire.view_id (Wire.Data data)
        else Delivery.on_data t ~src_rank:(-1) data)
      unstable;
    Delivery.release_total_order t;
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

(* Wire the failure detector whose suspicions start a view change: the
   engine's failure oracle, or heartbeats under [Config.Heartbeat]. Returns
   the heartbeat timer's cancel (a no-op under the oracle, whose observer
   checks [t.ejected] instead). *)
let watch_failures t =
  let engine = t.engine and self = t.self in
  match (t.config.Config.failure_detection, t.last_seen) with
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
    Engine.every engine ~owner:self ~period check
  | Config.Oracle, _ | Config.Heartbeat _, None ->
    Engine.on_failure engine (fun pid ->
        if (not t.ejected) && Engine.is_alive engine self
           && Group.mem t.epoch.view pid && pid <> self
        then start_view_change t ~failed:(Some pid) ~joined:[]);
    fun () -> ()
