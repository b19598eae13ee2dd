(* Layer replays: layers the benchmark cannot wrap from outside are timed
   by feeding their public API the shape a workload gives them (group
   size, backlog), in isolation. ns/op times the run's deterministic
   operation count predicts the layer's share of [Engine.run]. *)

module Wire = Repro_catocs.Wire
module Wire_codec = Repro_catocs.Wire_codec
module Delivery_queue = Repro_catocs.Delivery_queue
module Sequencer_queue = Repro_catocs.Total_order.Sequencer_queue

let now_ns = Harness.now_ns

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

(* [prepare ()] builds fresh state and returns the timed closure, which
   performs [ops] operations. One warm-up, then batches for at least
   [min_ns] (and five batches); the median batch gives ns per op. *)
let time_ops ?(min_ns = 100_000_000) ~ops prepare =
  let sample () =
    let go = prepare () in
    let t0 = now_ns () in
    go ();
    Float.of_int (now_ns () - t0) /. Float.of_int ops
  in
  ignore (sample ());
  let start = now_ns () in
  let rec loop acc k =
    if k >= 5 && now_ns () - start >= min_ns then acc
    else loop (sample () :: acc) (k + 1)
  in
  median (loop [] 0)

(* cost of one [now_ns] read: what every span duration carries on top *)
let clock_ns () =
  let ops = 100_000 in
  time_ops ~ops (fun () () ->
      for _ = 1 to ops do
        ignore (Sys.opaque_identity (now_ns ()))
      done)

let data ~msg_id ~sender ~vt ~meta =
  { Wire.msg_id; trace_id = msg_id; origin = sender; sender_rank = sender;
    view_id = 0; vt; meta; payload = msg_id; payload_bytes = 256;
    sent_at = Sim_time.zero; piggyback = [] }

(* --- Heap: the engine's event queue ------------------------------------- *)

type event = { time : Sim_time.t; seq : int; action : unit -> unit }

let compare_event a b =
  match Int.compare a.time b.time with 0 -> Int.compare a.seq b.seq | c -> c

(* one event = pop the earliest, push its successor a network delay later,
   with [backlog] events queued *)
let heap_ns ~backlog =
  let ops = 50_000 in
  let delays = Array.init 1024 (fun i -> 500 + (i * 4_391 mod 4_500)) in
  time_ops ~ops (fun () ->
      let h = Heap.create ~cmp:compare_event in
      let seq = ref 0 in
      for i = 0 to max 1 backlog - 1 do
        incr seq;
        Heap.push h { time = delays.(i land 1023); seq = !seq; action = ignore }
      done;
      fun () ->
        for i = 0 to ops - 1 do
          let e = Heap.pop_exn h in
          incr seq;
          Heap.push h
            { time = e.time + delays.(i land 1023); seq = !seq; action = ignore }
        done)

(* --- Delivery_queue ----------------------------------------------------- *)

(* Round r: every sender multicasts its r-th message; under Causal_full it
   depends on the whole previous round (what a sender has delivered one
   send period later on this network), under Fifo_gap only on its own
   predecessor. Arrival order is shuffled within blocks of [window]. *)
let queue_stream mode ~n ~window =
  let rounds = max 4 (20_000 / n) in
  let msgs =
    Array.init (n * rounds) (fun i ->
        let r = (i / n) + 1 and s = i mod n in
        let vt = Vector_clock.create n in
        let meta =
          match mode with
          | Delivery_queue.Causal_full ->
            for k = 0 to n - 1 do
              Vector_clock.set vt k (if k = s then r else r - 1)
            done;
            Wire.Causal_meta
          | Delivery_queue.Fifo_gap ->
            Vector_clock.set vt s r;
            Wire.Pc_meta { origin_seq = r }
        in
        { Delivery_queue.data = data ~msg_id:i ~sender:s ~vt ~meta;
          arrived_at = Sim_time.zero })
  in
  let rng = Rng.create 7L in
  let w = max 1 window in
  let i = ref 0 in
  while !i < Array.length msgs do
    let len = min w (Array.length msgs - !i) in
    let block = Array.sub msgs !i len in
    Rng.shuffle rng block;
    Array.blit block 0 msgs !i len;
    i := !i + len
  done;
  msgs

(* one op = one message added and (eventually) taken *)
let queue_ns mode ~n ~window =
  let stream = queue_stream mode ~n ~window in
  time_ops ~ops:(Array.length stream) (fun () ->
      let q = Delivery_queue.create mode in
      let local = Vector_clock.create n in
      let rec drain () =
        match Delivery_queue.take_deliverable q ~local with
        | Some p ->
          let d = p.Delivery_queue.data in
          Vector_clock.set local d.Wire.sender_rank
            (Vector_clock.get d.Wire.vt d.Wire.sender_rank);
          drain ()
        | None -> ()
      in
      fun () ->
        Array.iter (fun p -> Delivery_queue.add q p; drain ()) stream;
        if Delivery_queue.length q <> 0 then failwith "queue replay did not drain")

(* --- Matrix_clock / Sparse_matrix_clock ---------------------------------- *)

(* gossip shape: each round every row adopts one shared snapshot that is a
   round ahead, so every column minimum advances once per round *)
let update_row_ns ~sparse ~n =
  let rounds = max 4 (20_000 / n) in
  let vecs =
    Array.init rounds (fun r ->
        let v = Vector_clock.create n in
        for k = 0 to n - 1 do Vector_clock.set v k (r + 1) done;
        v)
  in
  let advanced = ref 0 in
  let on_advance _ = incr advanced in
  time_ops ~ops:(rounds * n) (fun () ->
      if sparse then begin
        let c = Sparse_matrix_clock.create n in
        fun () ->
          Array.iter
            (fun v ->
              for i = 0 to n - 1 do
                Sparse_matrix_clock.update_row_tracked c i v ~advanced:on_advance
              done)
            vecs
      end
      else begin
        let c = Matrix_clock.create n in
        fun () ->
          Array.iter
            (fun v ->
              for i = 0 to n - 1 do
                Matrix_clock.update_row_tracked c i v ~advanced:on_advance
              done)
            vecs
      end)

(* --- Wire_codec ---------------------------------------------------------- *)

(* The pc-encoded frame mix: PC data records (one nonzero timestamp
   component), each framed [copies] times in a row as a member framing one
   message for each overlay child does, interleaved with gossip frames
   (a full n-component clock, never memoized) making up [gossip_share] of
   all frames. Returns (encode ns, decode ns) per frame. *)
let codec_ns ~n ~copies ~gossip_share =
  let m = 2_000 and copies = max 1 copies in
  let data_frames = m * copies in
  let gossips =
    if gossip_share >= 1. then m
    else int_of_float (Float.round (Float.of_int data_frames *. gossip_share /. (1. -. gossip_share)))
  in
  let msgs =
    Array.init m (fun i ->
        let s = i mod n and seq = (i / n) + 1 in
        let vt = Vector_clock.create n in
        Vector_clock.set vt s seq;
        Wire.Proto
          (1, Wire.Data (data ~msg_id:i ~sender:s ~vt ~meta:(Wire.Pc_meta { origin_seq = seq }))))
  in
  let gossip =
    Array.init gossips (fun i ->
        let vc = Vector_clock.create n in
        for k = 0 to n - 1 do Vector_clock.set vc k ((i / n) + (k mod 3)) done;
        Wire.Proto (1, Wire.Gossip { view_id = 0; rank = i mod n; vc; lamport = 0 }))
  in
  (* gossip frame g goes after data message g * m / gossips *)
  let schedule = Array.make m [] in
  Array.iteri
    (fun g w ->
      let at = g * m / max 1 gossips in
      schedule.(at) <- w :: schedule.(at))
    gossip;
  let codec = Wire_codec.create Wire_codec.int_payload in
  let frames =
    Array.concat
      (List.map (Array.map (Wire_codec.encode codec)) [ msgs; gossip ])
  in
  let enc =
    time_ops ~ops:(data_frames + gossips) (fun () () ->
        Array.iteri
          (fun i w ->
            for _ = 1 to copies do
              ignore (Sys.opaque_identity (Wire_codec.encode codec w))
            done;
            List.iter
              (fun g -> ignore (Sys.opaque_identity (Wire_codec.encode codec g)))
              schedule.(i))
          msgs)
  in
  let dec =
    time_ops ~ops:(Array.length frames) (fun () () ->
        Array.iter
          (fun f -> ignore (Sys.opaque_identity (Wire_codec.decode codec f)))
          frames)
  in
  (enc, dec)

(* --- Total_order.Sequencer_queue ----------------------------------------- *)

(* one op = data added, its order added [backlog] messages later, released *)
let sequencer_ns ~backlog =
  let m = 20_000 in
  let vt = Vector_clock.create 16 in
  let pend =
    Array.init m (fun i ->
        { Delivery_queue.data =
            data ~msg_id:i ~sender:(i mod 16) ~vt ~meta:Wire.Seq_meta;
          arrived_at = Sim_time.zero })
  in
  let lag = max 0 backlog in
  time_ops ~ops:m (fun () ->
      let q = Sequencer_queue.create () in
      let rec release () =
        match Sequencer_queue.take_ready q with
        | Some _ -> release ()
        | None -> ()
      in
      let order j =
        Sequencer_queue.add_order q ~msg_id:j ~global_seq:j;
        release ()
      in
      fun () ->
        for i = 0 to m - 1 do
          Sequencer_queue.add_data q pend.(i);
          if i >= lag then order (i - lag)
        done;
        for j = max 0 (m - lag) to m - 1 do order j done;
        if Sequencer_queue.data_count q <> 0 then
          failwith "sequencer replay did not drain")
