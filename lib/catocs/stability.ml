(* Per-sender deques hold buffered messages in ascending sequence order (the
   causal/FIFO delivery condition guarantees per-sender in-order buffering
   within a view, so pushes are naturally sorted and a max-seq watermark
   doubles as the duplicate check). The matrix clock reports exactly which
   columns' minima advanced on each row merge; those columns are marked
   dirty, and an observation pops only the deque prefixes whose sequence
   numbers just crossed the advanced minimum — amortized O(newly stable)
   per release pass instead of O(buffer x group). A message is always
   buffered strictly before it can be stable (our own matrix row trails our
   deliveries), so every release is triggered by a later minimum advance
   and none is missed. *)

type 'a t = {
  matrix : Group_clock.t;
  pending : 'a Wire.data Queue.t array;  (* index = sender rank *)
  highest : int array;  (* highest seq buffered per sender (dedup) *)
  mutable dirty : int list;  (* columns whose cached minimum advanced *)
  dirty_mark : bool array;
  advanced : int -> unit;
      (* [mark_dirty] on this tracker, built once: the matrix clock calls
         it on every row or cell merge *)
  bytes_of : 'a Wire.data -> int;
  metrics : Metrics.t;
  graph : Causality.t option;
  obs : (Repro_obs.Log.t * int) option;
  registry : Repro_obs.Registry.t;
  lag_histo : Repro_obs.Histo.t;  (* fed only when [registry] is enabled *)
  reg_minima : Repro_obs.Registry.counter;
  mutable count : int;
  mutable bytes : int;
}

let mark_dirty t s =
  Repro_obs.Registry.incr t.reg_minima;
  if not t.dirty_mark.(s) then begin
    t.dirty_mark.(s) <- true;
    t.dirty <- s :: t.dirty
  end

let create ?clock ?(bytes_of = Wire.buffered_bytes) ?obs ?registry
    ~group_size ~metrics ~graph () =
  let registry =
    match registry with Some r -> r | None -> Repro_obs.Registry.null ()
  in
  let layer = Repro_obs.Event.Stability in
  let rec t =
    { matrix = Group_clock.create ?impl:clock group_size;
      pending = Array.init group_size (fun _ -> Queue.create ());
      highest = Array.make group_size 0;
      dirty = [];
      dirty_mark = Array.make group_size false;
      advanced = (fun s -> mark_dirty t s);
      bytes_of; metrics; graph; obs; registry;
      lag_histo =
        Repro_obs.Registry.histogram registry ~layer ~name:"stability_lag_us" ();
      reg_minima =
        Repro_obs.Registry.counter registry ~layer ~name:"minima_advances" ();
      count = 0; bytes = 0 }
  in
  t

(* Buffer [data] unless its sender's watermark already covers it; the
   member's peaks follow this view's own occupancy. *)
let buffer t ~sender ~seq (data : 'a Wire.data) =
  if seq > t.highest.(sender) then begin
    t.highest.(sender) <- seq;
    Queue.push data t.pending.(sender);
    t.bytes <- t.bytes + t.bytes_of data;
    t.count <- t.count + 1;
    Metrics.raise_unstable_peak t.metrics ~count:t.count ~bytes:t.bytes
  end

let note_sent_or_delivered t (data : 'a Wire.data) =
  let sender = data.Wire.sender_rank in
  buffer t ~sender ~seq:(Wire.seq data) data;
  Group_clock.update_row_tracked t.matrix sender data.Wire.vt
    ~advanced:t.advanced

(* PC fast path: a PC record says nothing about the sender's other
   components, so the sender-row merge is one diagonal cell — O(1) instead
   of the O(group) full-row classification pass, and the record's shared
   zero stamp never reaches the matrix. *)
let note_delivered_diag t (data : 'a Wire.data) =
  let sender = data.Wire.sender_rank in
  let seq = Wire.seq data in
  buffer t ~sender ~seq data;
  Group_clock.update_cell_tracked t.matrix sender sender ~seq
    ~advanced:t.advanced

(* The bookkeeping of one release: buffer gauges, lag sample, telemetry span
   and causal-graph pruning. *)
let release t ~now (data : 'a Wire.data) =
  t.bytes <- t.bytes - t.bytes_of data;
  t.count <- t.count - 1;
  if Repro_obs.Registry.enabled t.registry then
    Repro_obs.Histo.add t.lag_histo
      (float_of_int (Sim_time.to_us (Sim_time.sub now data.Wire.sent_at)));
  (match t.obs with
   | Some (log, pid) ->
     Repro_obs.Log.span_stable log ~at:now ~uid:data.Wire.msg_id ~pid
   | None -> ());
  match t.graph with
  | Some graph -> Causality.remove_stable graph data.Wire.msg_id
  | None -> ()

(* Pop every deque prefix covered by its column's (already advanced)
   minimum. Dirty columns marked during [note_sent_or_delivered] are
   drained here too: releases happen only at observation points. *)
let release_dirty t ~now =
  match t.dirty with
  | [] -> ()
  | dirty ->
    t.dirty <- [];
    List.iter
      (fun s ->
        t.dirty_mark.(s) <- false;
        let q = t.pending.(s) in
        let min_seq = Group_clock.min_component t.matrix s in
        let go = ref true in
        while !go do
          match Queue.peek_opt q with
          | Some (data : 'a Wire.data)
            when Wire.seq data <= min_seq ->
            ignore (Queue.pop q);
            release t ~now data
          | Some _ | None -> go := false
        done)
      dirty

(* two calls with constant flags: passing [live] itself to the optional
   argument would box a [Some] on every gossip *)
let observe_vc t ~live ~rank ~now vc =
  if live then
    Group_clock.update_row_tracked ~live:true t.matrix rank vc
      ~advanced:t.advanced
  else Group_clock.update_row_tracked t.matrix rank vc ~advanced:t.advanced;
  release_dirty t ~now

(* The caller's clock advanced only at [col] since its last observation:
   merge that one cell, then the usual release pass. *)
let self_observe_cell t ~rank ~col ~seq ~now =
  Group_clock.update_cell_tracked t.matrix rank col ~seq
    ~advanced:t.advanced;
  release_dirty t ~now

(* k-way merge of the per-sender deques: each is ascending in stamping
   order (per-sender send order), so no sort is needed. *)
let unstable t =
  let lists = Array.map (fun q -> List.of_seq (Queue.to_seq q)) t.pending in
  let heap =
    Heap.create ~cmp:(fun (a, _) (b, _) -> Wire.compare_stamping a b)
  in
  Array.iteri
    (fun r l ->
      match l with
      | [] -> ()
      | (d : 'a Wire.data) :: _ -> Heap.push heap (d, r))
    lists;
  let out = ref [] in
  let go = ref true in
  while !go do
    match Heap.pop heap with
    | None -> go := false
    | Some (_, r) -> (
      match lists.(r) with
      | d :: rest ->
        out := d :: !out;
        lists.(r) <- rest;
        (match rest with
         | (d' : 'a Wire.data) :: _ -> Heap.push heap (d', r)
         | [] -> ())
      | [] -> ())
  done;
  List.rev !out

let unstable_count t = t.count
let unstable_bytes t = t.bytes
let matrix t = t.matrix
