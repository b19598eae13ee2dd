(* Differential property tests: the delivery queue must be observationally
   identical to the single-list reference queue of the test-oracle library —
   same take results (oldest deliverable arrival first), same lengths after
   every operation, same drain order.

   Two generators drive the pair in lockstep, in both delivery-condition
   modes:
   - random interleavings of add / take_deliverable / drain / external
     clock advances with arbitrary timestamps, duplicate sequence numbers
     and the chaos fault-injection flag the mutation tests rely on;
   - stack-shaped streams: a group of 2 to 16 members, or of 64 (the
     benchmark's group size, where the queue's rank-indexed arrays grow
     and its watch lists hold many entries), multicasting
     delivery-legal causal histories through a reordering network, with
     held-back messages that leave hundreds of arrivals blocked, view
     changes that drain the queue mid-stream, and flush replays that re-add
     messages already received. The receiver takes after every arrival
     exactly as the stack does. Fifo-gap streams run twice: with full BSS
     stamps (as fbcast and lamport orderings build them) and as PC-broadcast
     records (an all-zero stamp and the sequence in [origin_seq]). *)

module DQ = Repro_catocs.Delivery_queue
module RQ = Repro_oracle.Reference_queue
module Wire = Repro_catocs.Wire

let mk ~msg_id ~rank ~vt =
  { DQ.data =
      { Wire.msg_id; trace_id = msg_id; origin = rank; sender_rank = rank;
        view_id = 0;
        vt; meta = Wire.Causal_meta;
        payload = msg_id; payload_bytes = 8; sent_at = Sim_time.zero;
        piggyback = [] };
    arrived_at = Sim_time.zero }

let as_pc ~zero_stamp (p : int DQ.pending) =
  let d = p.DQ.data in
  { p with
    DQ.data =
      { d with
        Wire.vt = zero_stamp; meta = Wire.Pc_meta { origin_seq = Wire.seq d } } }

let ids ps = List.map (fun (p : int DQ.pending) -> p.DQ.data.Wire.msg_id) ps

let show_ids l = String.concat "," (List.map string_of_int l)

let show_take = function
  | None -> "None"
  | Some (p : int DQ.pending) ->
    Printf.sprintf "Some #%d" p.DQ.data.Wire.msg_id

(* --- the lockstep pair --------------------------------------------------- *)

type pair = { qi : int DQ.t; qr : int RQ.t }

let make_pair mode = { qi = DQ.create mode; qr = RQ.create mode }

let check_lengths p ctx =
  if DQ.length p.qi <> RQ.length p.qr then
    QCheck.Test.fail_reportf "%s: length indexed=%d reference=%d" ctx
      (DQ.length p.qi) (RQ.length p.qr)

let add p pending =
  DQ.add p.qi pending;
  RQ.add p.qr pending;
  check_lengths p "add"

(* One take from each; on agreement the delivered timestamp is merged into
   [local] and its sender's component raised to the record's sequence (a
   PC record's stamp is all zero), as the stack does before its next
   take. *)
let take p ~local =
  let taken =
    match (DQ.take_deliverable p.qi ~local, RQ.take_deliverable p.qr ~local)
    with
    | None, None -> None
    | Some a, Some b when a.DQ.data.Wire.msg_id = b.DQ.data.Wire.msg_id ->
      let d = a.DQ.data in
      Vector_clock.merge_into local d.Wire.vt;
      let s = d.Wire.sender_rank in
      Vector_clock.set local s (max (Wire.seq d) (Vector_clock.get local s));
      Some a
    | a, b ->
      QCheck.Test.fail_reportf "take mismatch: indexed=%s reference=%s"
        (show_take a) (show_take b)
  in
  check_lengths p "take";
  taken

let drain p ctx =
  let a = ids (DQ.drain p.qi) and b = ids (RQ.drain p.qr) in
  if a <> b then
    QCheck.Test.fail_reportf "%s mismatch: indexed=[%s] reference=[%s]" ctx
      (show_ids a) (show_ids b);
  check_lengths p ctx

let finish p =
  let la = ids (DQ.to_list p.qi) and lb = ids (RQ.to_list p.qr) in
  if la <> lb then
    QCheck.Test.fail_reportf "to_list mismatch: indexed=[%s] reference=[%s]"
      (show_ids la) (show_ids lb);
  drain p "final drain"

(* --- random interleavings ------------------------------------------------ *)

type op =
  | Add of int * int list  (* sender rank, vt components *)
  | Take
  | Bump of int  (* advance one local clock component out of band *)
  | Drain
  | Chaos of bool

let run_equiv mode n ops =
  let p = make_pair mode in
  let local = Vector_clock.create n in
  let next_id = ref 0 in
  Fun.protect
    ~finally:(fun () -> DQ.chaos_disable_causal_check := false)
  @@ fun () ->
  List.iter
    (fun op ->
      match op with
      | Add (rank, comps) ->
        incr next_id;
        (* keep the sender's own component >= 1 so deliverable messages
           actually occur; other components stay arbitrary *)
        let vt = List.mapi (fun i v -> if i = rank then max 1 v else v) comps in
        add p (mk ~msg_id:!next_id ~rank ~vt:(Vector_clock.of_list vt))
      | Take -> ignore (take p ~local)
      | Bump c -> Vector_clock.set local c (Vector_clock.get local c + 1)
      | Drain -> drain p "drain"
      | Chaos flag -> DQ.chaos_disable_causal_check := flag)
    ops;
  finish p;
  true

let gen_ops n =
  QCheck.Gen.(
    list_size (int_range 20 200)
      (frequency
         [ (5,
            map2
              (fun rank comps -> Add (rank, comps))
              (int_range 0 (n - 1))
              (list_size (return n) (int_range 0 5)));
           (4, return Take);
           (2, map (fun c -> Bump c) (int_range 0 (n - 1)));
           (1, return Drain);
           (1, map (fun b -> Chaos b) bool) ]))

let gen_case =
  QCheck.Gen.(int_range 1 5 >>= fun n -> map (fun ops -> (n, ops)) (gen_ops n))

let equiv_test mode mode_name =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "indexed = reference on random interleavings (%s)"
         mode_name)
    ~count:300 (QCheck.make gen_case)
    (fun (n, ops) -> run_equiv mode n ops)

(* --- stack-shaped streams ------------------------------------------------ *)

type sop =
  | Send of int  (* member multicasts, stamped with its ticked clock *)
  | Sync of int * int  (* member [a] learns member [b]'s causal past *)
  | Recv of int  (* the network hands over one in-flight message *)
  | Hold of int  (* one in-flight message is held back until [Release] *)
  | Release
  | Replay of int  (* flush replay: re-add a message already received *)
  | View_change  (* drain the queue and restart every clock *)

let pp_sop = function
  | Send s -> Printf.sprintf "Send %d" s
  | Sync (a, b) -> Printf.sprintf "Sync (%d, %d)" a b
  | Recv k -> Printf.sprintf "Recv %d" k
  | Hold k -> Printf.sprintf "Hold %d" k
  | Release -> "Release"
  | Replay k -> Printf.sprintf "Replay %d" k
  | View_change -> "View_change"

(* Remove and return the [k mod length]-th element. *)
let pick_out k l =
  let k = k mod List.length l in
  (List.nth l k, List.filteri (fun i _ -> i <> k) l)

(* Every member's clock is a consistent cut of the group's history (sends
   tick it, [Sync] merges two cuts), so every stamp is one a real BSS
   member could have produced. With [~pc] every record is rebuilt as a
   PC-broadcast record. Returns the deepest backlog seen. *)
let run_stack ?(pc = false) mode n sops =
  let p = make_pair mode in
  let local = Vector_clock.create n in
  let members = Array.init n (fun _ -> Vector_clock.create n) in
  let zero_stamp = Vector_clock.create n in
  let in_flight = ref [] and held = ref [] and received = ref [] in
  let next_id = ref 0 in
  let peak = ref 0 in
  let arrive pending =
    add p pending;
    peak := max !peak (DQ.length p.qi);
    while take p ~local <> None do
      ()
    done
  in
  let apply = function
    | Send s ->
      incr next_id;
      let vt = Vector_clock.copy_tick members.(s) s in
      Vector_clock.merge_into members.(s) vt;
      let pending = mk ~msg_id:!next_id ~rank:s ~vt in
      let pending = if pc then as_pc ~zero_stamp pending else pending in
      in_flight := !in_flight @ [ pending ]
    | Sync (a, b) -> Vector_clock.merge_into members.(a) members.(b)
    | Recv k when !in_flight <> [] ->
      let pending, rest = pick_out k !in_flight in
      in_flight := rest;
      received := pending :: !received;
      arrive pending
    | Hold k when !in_flight <> [] ->
      let pending, rest = pick_out k !in_flight in
      in_flight := rest;
      held := pending :: !held
    | Release ->
      in_flight := !in_flight @ List.rev !held;
      held := []
    | Replay k when !received <> [] ->
      arrive (List.nth !received (k mod List.length !received))
    | View_change ->
      drain p "view-change drain";
      for i = 0 to n - 1 do
        Vector_clock.set local i 0
      done;
      Array.iteri (fun i _ -> members.(i) <- Vector_clock.create n) members;
      in_flight := [];
      held := [];
      received := []
    | Recv _ | Hold _ | Replay _ -> ()
  in
  List.iter apply sops;
  (* quiesce: everything held or in flight arrives, in send order *)
  apply Release;
  List.iter arrive !in_flight;
  if mode = DQ.Causal_full && DQ.length p.qi > 0 then begin
    (* only replays of already-delivered messages may stay blocked *)
    let delivered (q : int DQ.pending) =
      let d = q.DQ.data in
      Wire.seq d <= Vector_clock.get local d.Wire.sender_rank
    in
    if not (List.for_all delivered (DQ.to_list p.qi)) then
      QCheck.Test.fail_reportf "quiesced queue still holds undelivered [%s]"
        (show_ids (ids (DQ.to_list p.qi)))
  end;
  finish p;
  !peak

let gen_sops n =
  QCheck.Gen.(
    let member = int_range 0 (n - 1) in
    list_size (int_range 100 1500)
      (frequency
         [ (100, map (fun s -> Send s) member);
           (40, map2 (fun a b -> Sync (a, b)) member member);
           (90, map (fun k -> Recv k) (int_bound 1_000_000));
           (6, map (fun k -> Hold k) (int_bound 1_000_000));
           (1, return Release);
           (8, map (fun k -> Replay k) (int_bound 1_000_000));
           (1, return View_change) ]))

let gen_case_of_size size =
  QCheck.Gen.(size >>= fun n -> map (fun ops -> (n, ops)) (gen_sops n))

let gen_small_stack_case = gen_case_of_size (QCheck.Gen.int_range 2 16)

let gen_stack_case =
  gen_case_of_size
    QCheck.Gen.(frequency [ (3, int_range 2 16); (1, return 64) ])

let stack_test ?pc mode mode_name =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "indexed = reference on stack-shaped streams (%s)"
         mode_name)
    ~count:60
    (QCheck.make
       ~print:(fun (n, ops) ->
         Printf.sprintf "n=%d [%s]" n
           (String.concat "; " (List.map pp_sop ops)))
       gen_stack_case)
    (fun (n, ops) ->
      ignore (run_stack ?pc mode n ops);
      true)

(* The stack-shaped generator really builds deep backlogs: over a fixed
   sample of cases, some arrival leaves hundreds of messages blocked. *)
let test_stack_backlog_depth () =
  let cases =
    QCheck.Gen.generate ~rand:(Random.State.make [| 17 |]) ~n:20
      gen_small_stack_case
  in
  let deepest =
    List.fold_left
      (fun acc (n, ops) -> max acc (run_stack DQ.Causal_full n ops))
      0 cases
  in
  Alcotest.(check bool)
    (Printf.sprintf "deepest backlog %d >= 200" deepest)
    true (deepest >= 200)

(* --- directed ------------------------------------------------------------ *)

(* A per-sender gap that fills late, duplicate sequence numbers, and an
   out-of-band clock advance — the specific wake paths the indexed
   implementation must get right. *)
let test_directed_gap_fill () =
  let ok =
    run_equiv DQ.Causal_full 3
      [ Add (0, [ 2; 0; 0 ]);  (* gap: needs seq 1 first *)
        Take;
        Add (0, [ 1; 0; 0 ]);  (* fills the gap *)
        Add (0, [ 1; 0; 0 ]);  (* duplicate of the fill *)
        Take; Take; Take;
        Add (1, [ 3; 1; 0 ]);  (* blocked on component 0 *)
        Take;
        Bump 0;  (* external advance unblocks sender 1 *)
        Take; Take; Drain ]
  in
  Alcotest.(check bool) "directed sequence equivalent" true ok

(* One held-back message from member 0 blocks everything that depends on
   it; its late arrival releases the whole backlog through the wake index
   in one cascade, and a view change then drains a second backlog. *)
let test_directed_held_cascade () =
  let burst =
    List.concat (List.init 150 (fun _ -> [ Send 0; Sync (1, 0); Send 1 ]))
  in
  let recv_all = List.init 300 (fun _ -> Recv 0) in
  let peak =
    run_stack DQ.Causal_full 4
      ([ Send 0; Hold 0 ] @ burst @ recv_all
      @ [ Replay 3; Release; Recv 0 ]
      @ [ Send 2; Hold 0; Sync (3, 2); Send 3; Recv 0; View_change; Send 1;
          Recv 0 ])
  in
  Alcotest.(check bool)
    (Printf.sprintf "held message blocked %d arrivals" peak)
    true (peak >= 300)

(* --- allocation ----------------------------------------------------------- *)

(* Steady state at the benchmark's group size: sender 0's next message is
   added and taken until the queue has nothing deliverable, over a backlog
   that stays blocked — a sequence gap from every other sender, duplicates
   short of component 0 (re-linked on each of its advances) and one short
   of component 3 (which never advances). Every record is built before the
   count, so a pair may allocate only the queue's entry (a 6-word block)
   and the option its successful take returns (2 words). *)
let test_steady_state_alloc () =
  let n = 64 and warm = 1_000 and pairs = 10_000 in
  let q = DQ.create DQ.Causal_full in
  let local = Vector_clock.create n in
  let stamp rank comps =
    let vt = Vector_clock.create n in
    List.iter (fun (k, v) -> Vector_clock.set vt k v) comps;
    mk ~msg_id:(-1) ~rank ~vt
  in
  for rank = 2 to n - 1 do
    DQ.add q (stamp rank [ (rank, 2) ])
  done;
  for _ = 1 to 8 do
    DQ.add q (stamp 1 [ (1, 1); (0, 1_000_000_000) ])
  done;
  DQ.add q (stamp 2 [ (2, 1); (3, 5) ]);
  let backlog = DQ.length q in
  let cycle =
    Array.init (warm + pairs) (fun i -> stamp 0 [ (0, i + 1) ])
  in
  let run lo hi =
    for i = lo to hi - 1 do
      DQ.add q cycle.(i);
      match DQ.take_deliverable q ~local with
      | Some _ ->
        Vector_clock.set local 0 (i + 1);
        if DQ.take_deliverable q ~local <> None then
          failwith "backlog became deliverable"
      | None -> failwith "steady-state message not deliverable"
    done
  in
  run 0 warm;
  let before = Gc.minor_words () in
  run warm (warm + pairs);
  let per_pair = (Gc.minor_words () -. before) /. float_of_int pairs in
  Alcotest.(check int) "backlog untouched" backlog (DQ.length q);
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words per add+take <= 8" per_pair)
    true (per_pair <= 8.0)

let () =
  Alcotest.run "queue_equiv"
    [
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [ equiv_test DQ.Fifo_gap "fifo-gap";
            equiv_test DQ.Causal_full "causal-full";
            stack_test DQ.Fifo_gap "fifo-gap";
            stack_test ~pc:true DQ.Fifo_gap "fifo-gap pc";
            stack_test DQ.Causal_full "causal-full" ] );
      ( "directed",
        [ Alcotest.test_case "gap fill, duplicate, external bump" `Quick
            test_directed_gap_fill;
          Alcotest.test_case "held-back cascade and view change" `Quick
            test_directed_held_cascade;
          Alcotest.test_case "stack-shaped backlogs reach hundreds" `Quick
            test_stack_backlog_depth ] );
      ( "allocation",
        [ Alcotest.test_case "steady-state add+take at n=64" `Quick
            test_steady_state_alloc ] );
    ]
