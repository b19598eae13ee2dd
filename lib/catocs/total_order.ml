(* telemetry: a held message's queued span starts at its arrival *)
let note_queued obs (pending : _ Delivery_queue.pending) =
  match obs with
  | Some (log, pid) ->
    Repro_obs.Log.span_queued log ~at:pending.Delivery_queue.arrived_at
      ~uid:pending.Delivery_queue.data.Wire.msg_id ~pid
  | None -> ()

module Sequencer_queue = struct
  type 'a t = {
    mutable next_release : int;
    orders : (int, Wire.msg_id) Hashtbl.t;  (* global_seq -> msg *)
    data : (Wire.msg_id, 'a Delivery_queue.pending) Hashtbl.t;
    known : (Wire.msg_id, int) Hashtbl.t;
        (* every assignment ever seen this view, kept after release: a view
           change must hand peers the orders they missed (the sequencer may
           have crashed right after sending them to only some members) *)
    obs : (Repro_obs.Log.t * int) option;
  }

  let create ?obs () =
    { next_release = 0; orders = Hashtbl.create 32; data = Hashtbl.create 32;
      known = Hashtbl.create 32; obs }

  let add_data t pending =
    note_queued t.obs pending;
    Hashtbl.replace t.data pending.Delivery_queue.data.Wire.msg_id pending

  let add_order t ~msg_id ~global_seq =
    (* a flush replays the view's known orders; released ones are never
       looked up again *)
    if global_seq >= t.next_release then
      Hashtbl.replace t.orders global_seq msg_id;
    Hashtbl.replace t.known msg_id global_seq

  let known_orders t ~view_id =
    Hashtbl.fold
      (fun msg_id global_seq acc -> (view_id, msg_id, global_seq) :: acc)
      t.known []
    |> List.sort (fun (_, _, a) (_, _, b) -> Int.compare a b)

  let take_ready t =
    match Hashtbl.find_opt t.orders t.next_release with
    | None -> None
    | Some msg_id ->
      (match Hashtbl.find_opt t.data msg_id with
       | None -> None  (* order known but data not yet causally delivered *)
       | Some pending ->
         Hashtbl.remove t.orders t.next_release;
         Hashtbl.remove t.data msg_id;
         t.next_release <- t.next_release + 1;
         Some pending)

  let data_count t = Hashtbl.length t.data

  let drain t =
    let all =
      Hashtbl.fold (fun _ p acc -> p :: acc) t.data []
      |> List.sort (fun a b ->
             Wire.compare_stamping a.Delivery_queue.data b.Delivery_queue.data)
    in
    Hashtbl.clear t.data;
    all
end

module Lamport_queue = struct
  type 'a entry = { stamp : Lamport.stamp; pending : 'a Delivery_queue.pending }

  type 'a t = {
    mutable entries : 'a entry list;  (* sorted by stamp *)
    mutable size : int;  (* O(1) [length], sampled by metrics loops *)
    latest_seen : int array;  (* per rank, -1 until first observation *)
    obs : (Repro_obs.Log.t * int) option;
  }

  let create ?obs ~group_size () =
    { entries = []; size = 0; latest_seen = Array.make group_size (-1); obs }

  let add t pending ~stamp =
    note_queued t.obs pending;
    let entry = { stamp; pending } in
    let rec insert = function
      | [] -> [ entry ]
      | e :: rest ->
        if Lamport.compare_stamp entry.stamp e.stamp < 0 then entry :: e :: rest
        else e :: insert rest
    in
    t.entries <- insert t.entries;
    t.size <- t.size + 1

  (* record that [rank] has been seen at Lamport time [>= time] *)
  let observe_time t ~rank time =
    if rank >= 0 && rank < Array.length t.latest_seen
       && time > t.latest_seen.(rank)
    then t.latest_seen.(rank) <- time

  (* A message stamped (T, node) can still be preceded by an unseen message
     from rank r only if r's future or in-flight stamps can be below (T,
     node). Given FIFO per-sender delivery, rank r is safe once observed at
     a time strictly past T — or at exactly T when r >= node, because any
     unseen stamp (T, r) would order after (T, node). *)
  let rank_safe t ~time ~node rank =
    let seen = t.latest_seen.(rank) in
    seen > time || (seen = time && rank >= node)

  let releasable t (stamp : Lamport.stamp) =
    let n = Array.length t.latest_seen in
    let ok = ref true in
    for rank = 0 to n - 1 do
      if not (rank_safe t ~time:stamp.Lamport.time ~node:stamp.Lamport.node rank)
      then ok := false
    done;
    !ok

  let take_ready t =
    match t.entries with
    | [] -> None
    | entry :: rest ->
      if releasable t entry.stamp then begin
        t.entries <- rest;
        t.size <- t.size - 1;
        Some entry.pending
      end
      else None

  let length t = t.size

  (* The FIFO-gap queue in front of this one checks no cross-sender
     dependency: a live group gets causal order from the release rule,
     which waits for every rank. A leftover can still depend on a message
     that reached only members the group has lost; [delivered] counts the
     view's causally delivered messages per rank, the same at every
     survivor after the flush. Such a leftover is dropped, as the causal
     queue drops a blocked message, and so is every later one from its
     sender. Stamp order puts each dependency first. *)
  let drain t ~delivered =
    let limit = Vector_clock.copy delivered in
    let kept =
      List.filter_map
        (fun e ->
          let data = e.pending.Delivery_queue.data in
          let vt = data.Wire.vt and sender = data.Wire.sender_rank in
          let ok = ref (Wire.seq data <= Vector_clock.get limit sender) in
          for k = 0 to Vector_clock.size vt - 1 do
            if k <> sender && Vector_clock.get vt k > Vector_clock.get limit k
            then ok := false
          done;
          if !ok then Some e.pending
          else begin
            Vector_clock.set limit sender
              (min (Vector_clock.get limit sender) (Wire.seq data - 1));
            None
          end)
        t.entries
    in
    t.entries <- [];
    t.size <- 0;
    kept
end

(* --- the per-view layer --------------------------------------------------- *)

type 'a sequencer = {
  queue : 'a Sequencer_queue.t;
  is_sequencer : bool;  (* rank 0 assigns the view's global order *)
  mutable next_global_seq : int;
}

type 'a lamport = {
  lamport_queue : 'a Lamport_queue.t;
  rank : int;  (* this member's, for its own clock *)
  mutable deferred_lamport_gossip : (int * int * int) list;
      (* (rank, required per-sender seq, lamport time) *)
}

type 'a t = Unordered | Sequencer of 'a sequencer | Lamport of 'a lamport

let create ?obs (ordering : Config.ordering) ~rank ~group_size =
  match ordering with
  | Config.Fifo | Config.Causal -> Unordered
  | Config.Total_sequencer ->
    Sequencer
      { queue = Sequencer_queue.create ?obs (); is_sequencer = rank = 0;
        next_global_seq = 0 }
  | Config.Total_lamport ->
    Lamport
      { lamport_queue = Lamport_queue.create ?obs ~group_size (); rank;
        deferred_lamport_gossip = [] }

let hold t (pending : 'a Delivery_queue.pending) =
  match t with
  | Unordered -> false
  | Sequencer s -> Sequencer_queue.add_data s.queue pending; true
  | Lamport l ->
    let data = pending.Delivery_queue.data in
    (match data.Wire.meta with
     | Wire.Lamport_meta stamp ->
       Lamport_queue.add l.lamport_queue pending ~stamp;
       Lamport_queue.observe_time l.lamport_queue ~rank:data.Wire.sender_rank
         stamp.Lamport.time;
       true
     | Wire.Fifo_meta | Wire.Causal_meta | Wire.Seq_meta | Wire.Pc_meta _ ->
       (* a misconfigured peer; deliver FIFO to stay live *)
       false)

let assign_order t ~msg_id =
  match t with
  | Sequencer s when s.is_sequencer ->
    let global_seq = s.next_global_seq in
    s.next_global_seq <- global_seq + 1;
    Sequencer_queue.add_order s.queue ~msg_id ~global_seq;
    global_seq
  | Sequencer _ | Unordered | Lamport _ -> -1

let add_order t ~msg_id ~global_seq =
  match t with
  | Sequencer s -> Sequencer_queue.add_order s.queue ~msg_id ~global_seq
  | Unordered | Lamport _ -> ()

let add_orders t orders =
  List.iter (fun (msg_id, global_seq) -> add_order t ~msg_id ~global_seq) orders

let known_orders t ~view_id =
  match t with
  | Sequencer s -> Sequencer_queue.known_orders s.queue ~view_id
  | Unordered | Lamport _ -> []

let observe_own_clock t time =
  match t with
  | Lamport l -> Lamport_queue.observe_time l.lamport_queue ~rank:l.rank time
  | Unordered | Sequencer _ -> ()

let observe_gossip t ~rank ~time ~sent ~delivered =
  match t with
  | Lamport l ->
    let gossiper_sent = Vector_clock.get sent rank in
    if Vector_clock.get delivered rank >= gossiper_sent then
      Lamport_queue.observe_time l.lamport_queue ~rank time
    else
      l.deferred_lamport_gossip <-
        (rank, gossiper_sent, time) :: l.deferred_lamport_gossip
  | Unordered | Sequencer _ -> ()

let apply_deferred_gossip t ~delivered =
  match t with
  | Lamport l ->
    let applicable, still_deferred =
      List.partition
        (fun (rank, required, _) -> Vector_clock.get delivered rank >= required)
        l.deferred_lamport_gossip
    in
    l.deferred_lamport_gossip <- still_deferred;
    List.iter
      (fun (rank, _, time) ->
        Lamport_queue.observe_time l.lamport_queue ~rank time)
      applicable
  | Unordered | Sequencer _ -> ()

let take_ready = function
  | Unordered -> None
  | Sequencer s -> Sequencer_queue.take_ready s.queue
  | Lamport l -> Lamport_queue.take_ready l.lamport_queue

let length = function
  | Unordered -> 0
  | Sequencer s -> Sequencer_queue.data_count s.queue
  | Lamport l -> Lamport_queue.length l.lamport_queue

let drain t ~delivered =
  match t with
  | Unordered -> []
  | Sequencer s -> Sequencer_queue.drain s.queue
  | Lamport l -> Lamport_queue.drain l.lamport_queue ~delivered

(* The view's delivery path, replayed on its message set: the delay queue
   (what stays blocked is dropped, as at an install), then the total
   order's releases and the install's drain. With no group to wait for
   (size 0) a Lamport queue releases in stamp order; a sequencer queue
   stops at the first gap. *)
let replay_view ordering ~mode ~orders = function
  | [] -> []  (* a view skipped with only its orders: nothing to deliver *)
  | pendings ->
    let queue = Delivery_queue.create mode in
    let size =
      List.fold_left
        (fun n (p : _ Delivery_queue.pending) ->
          max n (Vector_clock.size p.Delivery_queue.data.Wire.vt))
        0 pendings
    in
    let local = Vector_clock.create size in
    (* several survivors' flush messages may carry the same message *)
    pendings
    |> List.sort_uniq (fun (a : _ Delivery_queue.pending) b ->
           Wire.compare_stamping a.Delivery_queue.data b.Delivery_queue.data)
    |> List.iter (Delivery_queue.add queue);
    let rec take_all take acc =
      match take () with
      | Some p -> take_all take (p :: acc)
      | None -> List.rev acc
    in
    let causal () =
      let taken = Delivery_queue.take_deliverable queue ~local in
      Option.iter
        (fun (p : _ Delivery_queue.pending) ->
          let data = p.Delivery_queue.data in
          Vector_clock.set local data.Wire.sender_rank (Wire.seq data))
        taken;
      taken
    in
    let t = create ordering ~rank:(-1) ~group_size:0 in
    let unheld = List.filter (fun p -> not (hold t p)) (take_all causal []) in
    add_orders t orders;
    let released = take_all (fun () -> take_ready t) [] in
    unheld @ released @ drain t ~delivered:local
