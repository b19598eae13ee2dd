(* The delivery layer: the receive path from arrival to the application
   (delay queue, PC forwarding, the hand-off to [Total_order]), the
   multicast path, and stability gossip — the ordered-delivery costs of
   Sections 3.4 and 5. Membership changes are [View_change]'s; this layer
   only reads [t.status] to suppress sends and forwards during a flush. *)

open Member

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
    (match t.shared.obs with
     | Some log ->
       Repro_obs.Log.span_delivered log ~at:now ~uid:data.Wire.msg_id
         ~pid:t.self
     | None -> ());
    t.callbacks.deliver ~sender:data.Wire.origin data.Wire.payload

let rec release_ready t total =
  match Total_order.take_ready total with
  | Some pending -> final_deliver t pending; release_ready t total
  | None -> ()

let release_total_order t =
  let total = t.epoch.total in
  Total_order.observe_own_clock total (Lamport.value t.lamport);
  release_ready t total

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
  if not (Total_order.hold e.total pending) then final_deliver t pending
  else begin
    let global_seq = Total_order.assign_order e.total ~msg_id:data.Wire.msg_id in
    if global_seq >= 0 then begin
      (* this member is the view's sequencer: publish the order *)
      count_control t (Group.size e.view - 1);
      broadcast_proto t
        (Wire.Seq_order
           { view_id = e.view.Group.view_id; msg_id = data.Wire.msg_id;
             global_seq })
    end
  end
  end

let rec drain_deliverables t =
  match Delivery_queue.take_deliverable t.epoch.queue ~local:t.epoch.vc with
  | Some pending ->
    causal_deliver t pending;
    drain_deliverables t
  | None ->
    Total_order.apply_deferred_gossip t.epoch.total ~delivered:t.epoch.vc;
    release_total_order t

let rec on_data t ~src_rank (data : 'a Wire.data) =
  (* piggybacked predecessors are just data messages: feed them through the
     same path (duplicates are dropped by the seen-ids check) *)
  (match data.Wire.piggyback with
   | [] -> ()
   | piggyback -> List.iter (fun d -> on_data t ~src_rank:(-1) d) piggyback);
  t.metrics.Metrics.data_received <- t.metrics.Metrics.data_received + 1;
  let e = t.epoch in
  if data.Wire.view_id > e.view.Group.view_id then begin
    match t.status with
    | Flushing f when data.Wire.view_id < f.new_view_id ->
      (* a message of a view this member's round skips, arriving after its
         flush message carried what it held of that view: no other
         survivor is bound to hold it, so it is not delivered here either
         (the round's flush messages bring whatever the others hold) *)
      ()
    | Flushing _ | Normal | Joining _ ->
      t.future_proto <-
        (data.Wire.view_id, Wire.Data data) :: t.future_proto
  end
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
  on_data t ~src_rank:(-1) data

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
  on_data t ~src_rank:(-1) data


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
    Total_order.observe_gossip e.total ~rank ~time:lamport ~sent:vc
      ~delivered:e.vc;
    drain_deliverables t
  end

(* --- data-path protos ---------------------------------------------------- *)

(* [true] iff [view_id] is the installed view; a message for a later view
   waits in [future_proto] for its install *)
let in_view t ~view_id proto =
  let current = t.epoch.view.Group.view_id in
  if view_id > current then
    t.future_proto <- (view_id, proto) :: t.future_proto;
  view_id = current

(* The data-path protos. [Stack.handle_proto] routes them here, and a view
   install replays the [future_proto] backlog through here with [src = -1].
   The view-change protos are [View_change]'s: [Stack] never routes them
   here. *)
let handle_proto t ~src (proto : 'a Wire.proto) =
  match proto with
  | Wire.Data data ->
    (* the transport-level sender (origin or PC forwarder), as a rank in the
       current view; -1 for replays and senders outside the view *)
    let src_rank = if src >= 0 then Group.find_rank t.epoch.view src else -1 in
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
      Total_order.add_order t.epoch.total ~msg_id ~global_seq;
      release_total_order t
    end
  | Wire.Gossip { view_id; rank; vc; lamport } ->
    on_gossip t ~view_id ~rank ~vc ~lamport
  | Wire.Flush _ | Wire.Flush_done _ | Wire.New_view _ | Wire.Join_request _
  | Wire.State_transfer _ -> ()
