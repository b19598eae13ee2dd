(* Differential property tests: the incremental stability tracker must
   release exactly the same (msg_id, release-time) sets as the full-rescan
   reference tracker of the test-oracle library on any delivery-legal
   interleaving of sends, deliveries (with and without the paired self-observation), duplicate
   notes, and gossip observations.

   The driver simulates an n-member group honestly — every generated
   delivery satisfies the causal delivery condition against the receiving
   member's clock — and runs member 0's tracker through both
   implementations in lockstep. The unstable buffer contents are compared
   after every operation, so a divergence in any release instant shows up
   at the first operation where the buffers differ; the accumulated
   stability-lag statistics (count and sum of now - sent_at over all
   releases) are compared at the end as a direct check on release times.

   A second, stack-shaped generator makes the calls in the order the stack
   does, for groups of up to 16 over either matrix-clock representation:
   every delivery is a note followed by the single-cell self-observation,
   gossip hands the tracker a snapshot of a peer's clock (or re-observes
   the tracker's own running clock), and PC-broadcast groups stamp only
   the sender's component and note through the diagonal fast path. *)

module S = Repro_catocs.Stability
module R = Repro_oracle.Reference_stability
module Wire = Repro_catocs.Wire
module Metrics = Repro_catocs.Metrics

type op =
  | Send of int  (* member multicasts (and self-delivers immediately) *)
  | Deliver of int * int * bool
      (* member, pick among its currently legal messages, and whether the
         note is followed by the stack's usual self-observation (false
         exercises dirty-column accumulation across several notes) *)
  | Gossip of int  (* tracker observes the member's delivered clock *)
  | Renote  (* duplicate note of the last message member 0 buffered *)

(* [causal] is the message's full causal stamp, which decides delivery
   legality; the tracker sees [data], whose [vt] equals it under BSS and is
   the run's one all-zero stamp under PC-broadcast, where the sequence
   travels as [origin_seq]. *)
type msg = {
  data : int Wire.data;
  causal : Vector_clock.t;
  delivered : bool array;
}

(* Which calls a delivery and a gossip make: the free mix of the random
   generator, or the stack's own order under BSS or PC-broadcast stamps. *)
type shape = Random_calls | Stack_bss | Stack_pc

let pp_op = function
  | Send s -> Printf.sprintf "Send %d" s
  | Deliver (m, p, o) -> Printf.sprintf "Deliver (%d, %d, %b)" m p o
  | Gossip m -> Printf.sprintf "Gossip %d" m
  | Renote -> "Renote"

let show_ids l = String.concat "," (List.map string_of_int l)

let run_equiv ?(shape = Random_calls) ?clock n ops =
  let metrics_i = Metrics.create () and metrics_r = Metrics.create () in
  let registry_i = Repro_obs.Registry.create ()
  and registry_r = Repro_obs.Registry.create () in
  let inc =
    S.create ?clock ~registry:registry_i ~group_size:n ~metrics:metrics_i
      ~graph:None ()
  in
  let re =
    R.create ?clock ~registry:registry_r ~group_size:n ~metrics:metrics_r
      ~graph:None ()
  in
  let dvc = Array.init n (fun _ -> Vector_clock.create n) in
  let zero_stamp = Vector_clock.create n in
  let in_flight = ref [] in
  let next_id = ref 0 in
  let now = ref 0 in
  let last_noted = ref None in
  let tick () =
    incr now;
    Sim_time.us (!now * 100)
  in
  let ids l = List.map (fun (d : int Wire.data) -> d.Wire.msg_id) l in
  let check ctx =
    let li = ids (S.unstable inc) in
    let lr = ids (R.unstable re) in
    if li <> lr then
      QCheck.Test.fail_reportf "%s: unstable mismatch inc=[%s] ref=[%s]" ctx
        (show_ids li) (show_ids lr);
    if S.unstable_count inc <> R.unstable_count re then
      QCheck.Test.fail_reportf "%s: count mismatch inc=%d ref=%d" ctx
        (S.unstable_count inc)
        (R.unstable_count re);
    if S.unstable_bytes inc <> R.unstable_bytes re then
      QCheck.Test.fail_reportf "%s: bytes mismatch inc=%d ref=%d" ctx
        (S.unstable_bytes inc)
        (R.unstable_bytes re)
  in
  let note data =
    (match shape with
     | Stack_pc ->
       S.note_delivered_diag inc data;
       R.note_delivered_diag re data
     | Random_calls | Stack_bss ->
       S.note_sent_or_delivered inc data;
       R.note_sent_or_delivered re data);
    last_noted := Some data
  in
  let self_observe at =
    S.observe_vc inc ~live:true ~rank:0 ~now:at dvc.(0);
    R.observe_vc re ~live:true ~rank:0 ~now:at dvc.(0)
  in
  (* what the stack does on every delivery: note, then merge the one clock
     cell the delivery advanced *)
  let note_delivery ~observe at (data : int Wire.data) =
    note data;
    match shape with
    | Random_calls -> if observe then self_observe at
    | Stack_bss | Stack_pc ->
      let col = data.Wire.sender_rank in
      let seq = Wire.seq data in
      S.self_observe_cell inc ~rank:0 ~col ~seq ~now:at;
      R.self_observe_cell re ~rank:0 ~col ~seq ~now:at
  in
  let apply op =
    match op with
    | Send s ->
      let at = tick () in
      let causal = Vector_clock.copy_tick dvc.(s) s in
      let vt, meta =
        match shape with
        | Stack_pc ->
          (zero_stamp, Wire.Pc_meta { origin_seq = Vector_clock.get causal s })
        | Random_calls | Stack_bss -> (causal, Wire.Causal_meta)
      in
      incr next_id;
      let data =
        { Wire.msg_id = !next_id; trace_id = !next_id; origin = s;
          sender_rank = s; view_id = 0;
          vt; meta; payload = !next_id; payload_bytes = 8 + (!next_id mod 7);
          sent_at = at; piggyback = [] }
      in
      let delivered = Array.make n false in
      delivered.(s) <- true;
      in_flight := { data; causal; delivered } :: !in_flight;
      (* the sender delivers its own multicast immediately *)
      Vector_clock.merge_into dvc.(s) causal;
      if s = 0 then note_delivery ~observe:true at data
    | Deliver (m, pick, observe) ->
      let legal =
        List.filter
          (fun msg ->
            (not msg.delivered.(m))
            && Vector_clock.deliverable
                 ~sender:msg.data.Wire.sender_rank ~msg:msg.causal
                 ~local:dvc.(m))
          !in_flight
      in
      if legal <> [] then begin
        let at = tick () in
        let msg = List.nth legal (pick mod List.length legal) in
        msg.delivered.(m) <- true;
        Vector_clock.merge_into dvc.(m) msg.causal;
        if m = 0 then note_delivery ~observe at msg.data
      end
    | Gossip 0 when shape <> Random_calls -> self_observe (tick ())
    | Gossip m ->
      let at = tick () in
      (* a gossip message carries its own copy of the peer's clock; random
         calls hand over the running clock itself, which is live *)
      let vc, live =
        match shape with
        | Random_calls -> (dvc.(m), true)
        | Stack_bss | Stack_pc -> (Vector_clock.copy dvc.(m), false)
      in
      S.observe_vc inc ~live ~rank:m ~now:at vc;
      R.observe_vc re ~live ~rank:m ~now:at vc
    | Renote -> (
      match !last_noted with
      | Some data
        when List.mem data.Wire.msg_id (ids (R.unstable re)) ->
        note data
      | Some _ | None -> ())
  in
  List.iter
    (fun op ->
      apply op;
      check (pp_op op))
    ops;
  (* final catch-up gossip: several rounds so cross-member knowledge
     propagates and late releases fire in both implementations *)
  for _ = 1 to 2 do
    for m = 0 to n - 1 do
      apply (Gossip m);
      check "catch-up gossip"
    done
  done;
  let lag registry =
    Repro_obs.Registry.histogram registry ~layer:Repro_obs.Event.Stability
      ~name:"stability_lag_us" ()
  in
  let lag_i = lag registry_i and lag_r = lag registry_r in
  if Repro_obs.Histo.count lag_i <> Repro_obs.Histo.count lag_r then
    QCheck.Test.fail_reportf "release count mismatch inc=%d ref=%d"
      (Repro_obs.Histo.count lag_i) (Repro_obs.Histo.count lag_r);
  (* lags are integral microseconds, so the sums are exact in float and
     equal iff the (msg, release-time) multisets are *)
  if Repro_obs.Histo.sum lag_i <> Repro_obs.Histo.sum lag_r then
    QCheck.Test.fail_reportf "release-time sum mismatch inc=%.0f ref=%.0f"
      (Repro_obs.Histo.sum lag_i) (Repro_obs.Histo.sum lag_r);
  let peaks m = (m.Metrics.peak_unstable_count, m.Metrics.peak_unstable_bytes) in
  if peaks metrics_i <> peaks metrics_r then
    QCheck.Test.fail_reportf "unstable peak mismatch inc=%d/%dB ref=%d/%dB"
      (fst (peaks metrics_i)) (snd (peaks metrics_i))
      (fst (peaks metrics_r)) (snd (peaks metrics_r));
  true

let gen_ops n =
  QCheck.Gen.(
    list_size (int_range 30 200)
      (frequency
         [ (4, map (fun s -> Send s) (int_range 0 (n - 1)));
           (6,
            map3
              (fun m p o -> Deliver (m, p, o))
              (int_range 0 (n - 1))
              (int_bound 1000) bool);
           (3, map (fun m -> Gossip m) (int_range 0 (n - 1)));
           (1, return Renote) ]))

let gen_case =
  QCheck.Gen.(int_range 1 6 >>= fun n -> map (fun ops -> (n, ops)) (gen_ops n))

let print_case (n, ops) =
  Printf.sprintf "n=%d [%s]" n (String.concat "; " (List.map pp_op ops))

let prop_equiv =
  QCheck.Test.make
    ~name:"incremental = reference on random delivery-legal interleavings"
    ~count:300
    (QCheck.make ~print:print_case gen_case)
    (fun (n, ops) -> run_equiv n ops)

(* Stack-shaped: larger groups, longer histories, always the paired
   single-cell observation after a delivery, over both clock
   representations. *)
let gen_stack_ops n =
  QCheck.Gen.(
    let member = int_range 0 (n - 1) in
    list_size (int_range 100 600)
      (frequency
         [ (4, map (fun s -> Send s) member);
           (8, map2 (fun m p -> Deliver (m, p, true)) member (int_bound 1000));
           (2, map (fun m -> Gossip m) member);
           (1, return Renote) ]))

let stack_test shape shape_name =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "incremental = reference on stack-shaped calls (%s)"
         shape_name)
    ~count:60
    (QCheck.make
       ~print:(fun (sparse, c) ->
         Printf.sprintf "sparse=%b %s" sparse (print_case c))
       QCheck.Gen.(
         pair bool
           (int_range 2 16 >>= fun n ->
            map (fun ops -> (n, ops)) (gen_stack_ops n))))
    (fun (sparse, (n, ops)) ->
      let clock = if sparse then Group_clock.Sparse else Group_clock.Dense in
      run_equiv ~shape ~clock n ops)

(* Directed: full dissemination drains both buffers completely, at the same
   observation instants. *)
let test_directed_full_drain () =
  let ok =
    run_equiv 3
      [ Send 0; Send 1; Send 2;
        Deliver (0, 0, true); Deliver (0, 0, true);
        Deliver (1, 0, true); Deliver (1, 0, true);
        Deliver (2, 0, true); Deliver (2, 0, true);
        Gossip 1; Gossip 2 ]
  in
  Alcotest.(check bool) "directed full drain equivalent" true ok

(* Directed: a single-member group stabilises its own sends at the paired
   self-observation. *)
let test_directed_singleton () =
  let ok = run_equiv 1 [ Send 0; Send 0; Send 0 ] in
  Alcotest.(check bool) "singleton group equivalent" true ok

(* Directed: deliveries whose self-observation is deferred accumulate dirty
   columns that must all drain at the next observation. *)
let test_directed_deferred_observe () =
  let ok =
    run_equiv 2
      [ Send 1; Send 1; Send 1;
        Deliver (0, 0, false); Deliver (0, 0, false); Deliver (0, 0, false);
        Gossip 0; Gossip 1 ]
  in
  Alcotest.(check bool) "deferred observation equivalent" true ok

let () =
  Alcotest.run "stability_equiv"
    [
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [ prop_equiv; stack_test Stack_bss "bss"; stack_test Stack_pc "pc" ]
      );
      ( "directed",
        [
          Alcotest.test_case "full drain" `Quick test_directed_full_drain;
          Alcotest.test_case "singleton group" `Quick test_directed_singleton;
          Alcotest.test_case "deferred observation" `Quick
            test_directed_deferred_observe;
        ] );
    ]
