(* Tests for the schedule-exploration checker itself: the per-ordering seed
   sweeps that gate the repo, determinism of the seed -> verdict pipeline, and
   the mutation tests — deliberately breaking the BSS causal delivery
   condition, PC forwarding, or the sparse stability clock's minima cache, and requiring the checker to catch each
   with a shrunk counterexample. *)

module Config = Repro_catocs.Config
module Delivery_queue = Repro_catocs.Delivery_queue
module Pc_causal = Repro_catocs.Pc_causal
module Runner = Repro_check.Runner
module Fault_plan = Repro_check.Fault_plan
module Oracle = Repro_check.Oracle

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- sweeps -------------------------------------------------------------- *)

(* One hundred seeds per ordering mode: every seed samples a fault plan (loss
   and duplication bursts, partitions, crashes, mid-multicast crashes, joins)
   and the oracles must find no violation. *)
let sweep_seeds = 100

let test_sweep config () =
  let result = Runner.sweep ~config ~seeds:sweep_seeds () in
  (match result.Runner.failed with
  | None -> ()
  | Some report ->
    Alcotest.failf "sweep found a violation:@.%a" Runner.pp_report report);
  check_int "all seeds passed" sweep_seeds result.Runner.passed;
  check_bool "traffic flowed" true (result.Runner.total_deliveries > 0)

(* The PC-broadcast causal implementation under the full fault battery:
   same oracles, same 100 seeds. Only the causal layer dispatches on it,
   so cbcast is the interesting mode. *)
let pc = Config.with_causal_impl Config.Pc_causal (Runner.config Config.Causal)

let test_sweep_pc () = test_sweep pc ()

(* The same sweep with every message a codec frame, so each receiver
   delivers and buffers decoded records, and flush re-sends and pong
   retransmissions re-encode them. *)
let test_sweep_pc_encoded () =
  test_sweep { pc with Config.wire_format = Config.Encoded } ()

(* The oracles on hand-built member logs: one property broken per log, and
   the oracle name, member and detail string the counterexample reports.
   The seed sweeps never drive the total-order oracle to a conviction. *)
let test_oracles_convict_hand_built_logs () =
  let verdict ordering build =
    let o = Oracle.create () in
    Oracle.register_member o ~pid:1 ~name:"a" ~view:(Some (0, [ 1; 2 ]));
    Oracle.register_member o ~pid:2 ~name:"b" ~view:(Some (0, [ 1; 2 ]));
    let send pid at =
      Oracle.note_send o ~sender:pid ~at:(Sim_time.ms at) ~depth:0
        ~partial:false
    in
    let deliver pid uid at = Oracle.note_delivery o ~pid ~uid ~at:(Sim_time.ms at) in
    build send deliver;
    match Oracle.check o ~ordering ~survivors:[ 1; 2 ] with
    | Some v ->
      Printf.sprintf "%s %s: %s" v.Oracle.oracle v.Oracle.member v.Oracle.detail
    | None -> "none"
  in
  check_string "duplicate"
    "at-most-once b: msg#0 delivered twice"
    (verdict Config.Causal (fun send deliver ->
         let u0 = send 1 1 in
         deliver 1 u0 2;
         deliver 2 u0 2;
         deliver 2 u0 3));
  (* b delivered u0 before sending u1; a delivers u1 first, or never u0 *)
  let inverted ~a_delivers_u0 send deliver =
    let u0 = send 1 1 in
    deliver 2 u0 2;
    let u1 = send 2 3 in
    deliver 2 u1 4;
    deliver 1 u1 4;
    if a_delivers_u0 then deliver 1 u0 5
  in
  check_string "causal inversion"
    "causal-order a: msg#1 delivered before its causal predecessor msg#0"
    (verdict Config.Causal (inverted ~a_delivers_u0:true));
  check_string "causal gap"
    "causal-order a: msg#1 delivered but its causal predecessor msg#0 never was"
    (verdict Config.Causal (inverted ~a_delivers_u0:false));
  check_string "total-order disagreement"
    "total-order a: a delivered msg#0 before msg#1; b delivered them in the \
     opposite order"
    (verdict Config.Total_sequencer (fun send deliver ->
         let u0 = send 1 1 in
         let u1 = send 2 1 in
         deliver 1 u0 2;
         deliver 1 u1 3;
         deliver 2 u1 2;
         deliver 2 u0 3))

(* --- determinism --------------------------------------------------------- *)

let test_deterministic_verdicts () =
  (* Same seed, same ordering -> byte-identical verdict fingerprint. *)
  List.iter
    (fun (name, ordering) ->
      List.iter
        (fun seed ->
          let config = Runner.config ordering in
          let a = Runner.fingerprint (Runner.run_seed ~config ~seed ()) in
          let b = Runner.fingerprint (Runner.run_seed ~config ~seed ()) in
          check_string (Printf.sprintf "%s seed %d" name seed) a b)
        [ 0; 7; 42 ])
    Runner.orderings

let test_pc_deterministic_verdicts () =
  (* The PC path is as deterministic as the BSS one: forwarding, the link
     barrier and retransmission all key off the engine schedule only. *)
  List.iter
    (fun seed ->
      let a = Runner.fingerprint (Runner.run_seed ~config:pc ~seed ()) in
      let b = Runner.fingerprint (Runner.run_seed ~config:pc ~seed ()) in
      check_string (Printf.sprintf "pc seed %d" seed) a b)
    [ 0; 7; 42 ]

let test_vector_pc_agreement () =
  (* Both causal implementations must agree on the verdict for every
     seed: both pass the oracles under the same fault plan. *)
  List.iter
    (fun seed ->
      List.iter
        (fun (name, config) ->
          match Runner.run_seed ~config ~seed () with
          | Runner.Pass _ -> ()
          | Runner.Fail r ->
            Alcotest.failf "%s fails seed %d:@.%a" name seed Runner.pp_report r)
        [ ("bss", Runner.config Config.Causal); ("pc", pc) ])
    (List.init 10 Fun.id)

(* Whole-stack regression pins: the MD5 of the verdict fingerprints for
   seeds 0-9 of every ordering (bss) and of cbcast over PC-broadcast. The
   digests were taken when the list queue and the full-rescan stability
   tracker were still selectable in the stack and cross-checked against
   the indexed queue and the incremental tracker seed by seed, and re-taken
   when a restarted flush round began keeping the joiners it was admitting
   (seed 1 of every ordering, bss and pc, then admits its joiner a round
   earlier), and again when a Reliable link began giving up its window to
   a member the view removed (seeds with a crash send fewer packets, so
   the network's loss draws land elsewhere). A seed whose send or delivery
   count, or whose verdict, changes moves them. *)
let fingerprint_digest configs =
  let b = Buffer.create 4096 in
  List.iter
    (fun config ->
      for seed = 0 to 9 do
        Buffer.add_string b
          (Runner.fingerprint (Runner.run_seed ~config ~seed ()));
        Buffer.add_char b '\n'
      done)
    configs;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The checker's settings for every ordering, BSS causal layer. *)
let bss_runs =
  List.map (fun (_, ordering) -> Runner.config ordering) Runner.orderings

let test_bss_fingerprints_pinned () =
  check_string "bss seeds 0-9, all orderings"
    "b2a827cfe267c7714806a9a28265fccc"
    (fingerprint_digest bss_runs)

let test_pc_fingerprints_pinned () =
  check_string "pc seeds 0-9, cbcast" "7926a31153f96f582cd974143872175b"
    (fingerprint_digest [ pc ])

(* Delivery-sequence pins: the verdict fingerprint of each seed followed by
   every delivery of the run as pid:uid:time, in log order. Unlike the
   verdict pins above these move when any delivery changes member, message
   or instant, even if every count and verdict stays the same (admitting
   queued joiners 1us later is such a change). The seeds include joins and
   crashes, so both view-install paths run. The sequential digests were
   taken on the tree before the per-view epoch refactor of [Stack], the
   parallel one on the tree before [Engine]'s two run loops became one; all
   three were re-taken with the verdict pins above when a restarted flush
   round began keeping its joiners (seeds 1 and 23 move), and when a link
   began giving up its window to a removed member. *)
let delivery_sequence_digest ?engine_impl ~seeds runs =
  let b = Buffer.create 65536 in
  List.iter
    (fun config ->
      for seed = 0 to seeds - 1 do
        let exec, verdict =
          Runner.exec_of_plan ?engine_impl ~config ~seed
            (Fault_plan.generate ~seed Fault_plan.default_profile)
        in
        Buffer.add_string b (Runner.fingerprint verdict);
        List.iter
          (fun (d : Repro_analyze.Exec.delivery) ->
            Printf.bprintf b "%d:%d:%d;" d.d_pid d.d_uid d.d_at)
          exec.Repro_analyze.Exec.deliveries;
        Buffer.add_char b '\n'
      done)
    runs;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_bss_delivery_sequence_pinned () =
  check_string "bss seeds 0-29, all orderings, every delivery"
    "6481ac19e5bee64db69b90fd0eb5da89"
    (delivery_sequence_digest ~seeds:30 bss_runs)

let test_pc_delivery_sequence_pinned () =
  check_string "pc seeds 0-29, cbcast, every delivery"
    "5fbd6d3e5e23d79dd41cbbd766ae3b2d"
    (delivery_sequence_digest ~seeds:30 [ pc ])

(* [Parallel] schedules pinned absolutely, not only against other domain
   counts: a change that moved every domain count the same way keeps the
   cross-domain identity tests green but moves this digest. Re-taken when
   queue entries began to tie-break on their source lane instead of their
   push order: same-instant arrivals exchanged at different barriers, and
   a lane's own timer tying with an arrival, now run in source-lane
   order. *)
let test_parallel_delivery_sequence_pinned () =
  check_string "parallel d1 seeds 0-9, all orderings and pc, every delivery"
    "f493bb767047974911a405af5eed5341"
    (delivery_sequence_digest ~engine_impl:(Engine.Parallel { domains = 1 })
       ~seeds:10 (bss_runs @ [ pc ]))

(* Stability-timing pin: for seeds 0-9 of every ordering, each member's
   stability-lag sample count and sum (its registry histogram) and its two
   unstable-buffer peaks. The pins above hash deliveries only, and a
   stability release that happens later changes no delivery; this one
   moves with release timing. Re-taken with them when a restarted flush
   round began keeping its joiners (seed 1 moves), and when a link began
   giving up its window to a removed member. *)
let stability_timing_digest () =
  let b = Buffer.create 4096 in
  List.iter
    (fun config ->
      for seed = 0 to 9 do
        List.iter
          (fun (name, (m : Repro_catocs.Metrics.t), registry) ->
            let lag =
              Repro_obs.Registry.histogram registry
                ~layer:Repro_obs.Event.Stability ~name:"stability_lag_us" ()
            in
            Printf.bprintf b "%s:%d:%h:%d:%d;" name (Repro_obs.Histo.count lag)
              (Repro_obs.Histo.sum lag) m.peak_unstable_count
              m.peak_unstable_bytes)
          (Runner.member_metrics ~config ~seed ());
        Buffer.add_char b '\n'
      done)
    bss_runs;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_stability_timing_pinned () =
  check_string "bss seeds 0-9, all orderings, per-member stability"
    "e2385a108d8fc5c3b740bf21a3756004" (stability_timing_digest ())

let test_cross_clock_verdicts () =
  (* The sparse stability clock reproduces the dense tracker's advance
     callbacks byte-for-byte, so stability releases — and hence flush
     contents, deliveries and verdicts — must be identical: same seed,
     byte-identical fingerprint under either clock, for every ordering and
     for the pc causal layer. *)
  let fp config stability_clock seed =
    Runner.fingerprint
      (Runner.run_seed ~config:{ config with Config.stability_clock } ~seed ())
  in
  List.iter
    (fun (name, ordering) ->
      let config = Runner.config ordering in
      List.iter
        (fun seed ->
          check_string
            (Printf.sprintf "%s seed %d cross-clock" name seed)
            (fp config Config.Dense_clock seed)
            (fp config Config.Sparse_clock seed))
        (List.init 10 Fun.id))
    Runner.orderings;
  List.iter
    (fun seed ->
      check_string
        (Printf.sprintf "pc seed %d cross-clock" seed)
        (fp pc Config.Dense_clock seed) (fp pc Config.Sparse_clock seed))
    (List.init 5 Fun.id)

(* Every entry point runs the config it is given: for each ordering under
   every combination of causal layer, wire format and stability clock, a
   seed's [run_seed] verdict, [replay] of the seed's plan and
   [exec_of_plan] on it render the same fingerprint. *)
let test_entry_points_agree () =
  let settings =
    List.concat_map
      (fun (impl_name, causal_impl) ->
        List.concat_map
          (fun (wire_name, wire_format) ->
            List.map
              (fun (clock_name, stability_clock) ->
                ( String.concat "," [ impl_name; wire_name; clock_name ],
                  fun ordering ->
                    { (Config.with_causal_impl causal_impl
                         (Runner.config ordering))
                      with
                      Config.wire_format;
                      stability_clock } ))
              [ ("dense", Config.Dense_clock); ("sparse", Config.Sparse_clock) ])
          [ ("structural", Config.Structural); ("encoded", Config.Encoded) ])
      [ ("bss", Config.Vector_causal); ("pc", Config.Pc_causal) ]
  in
  List.iter
    (fun (name, ordering) ->
      List.iter
        (fun (setting, config_of) ->
          let config = config_of ordering in
          List.iter
            (fun seed ->
              let plan = Fault_plan.generate ~seed Fault_plan.default_profile in
              let label = Printf.sprintf "%s seed %d (%s)" name seed setting in
              let seeded = Runner.fingerprint (Runner.run_seed ~config ~seed ()) in
              check_string (label ^ " replay") seeded
                (Runner.fingerprint (Runner.replay ~config ~seed plan));
              check_string (label ^ " exec") seeded
                (Runner.fingerprint
                   (snd (Runner.exec_of_plan ~config ~seed plan))))
            [ 0; 1; 2 ])
        settings)
    Runner.orderings

(* Total-order bugs past the 100-seed sweeps, each replayed from the
   seed's plan cut to the listed fault indexes (all of them when [None])
   under the seed's engine randomness. The first three are shrunk
   counterexamples with two or more joins: a member whose flush round was
   restarted delivered a view it skipped in stamping order, against the
   sequencer's or the Lamport stamps' order its members used. In the
   fourth, a Lamport leftover whose causal predecessor reached only two
   members that both crashed was delivered at the install. In the fifth,
   two members skipping the same view delivered different parts of it:
   one held a message of it that it had received directly, the other a
   message from a joiner outside the round's survivor set. The last raised
   from the skipped-view replay of a view that left only orders. *)
let shrunk_total_order_plans =
  [ ("abcast", 480, Some [ 0; 1; 2; 3 ]);
    ("abcast", 922, Some [ 0; 1; 2; 3 ]);
    ("lamport", 352, Some [ 0; 1; 2; 3 ]);
    ("lamport", 2766, Some [ 0; 1 ]);
    ("lamport", 1697, None);
    ("abcast", 1901, None) ]

let test_shrunk_total_order_plans () =
  List.iter
    (fun (name, seed, keep) ->
      let ordering = Option.get (Runner.ordering_of_string name) in
      let plan = Fault_plan.generate ~seed Fault_plan.default_profile in
      let faults =
        match keep with
        | Some keep ->
          List.filteri (fun i _ -> List.mem i keep) plan.Fault_plan.faults
        | None -> plan.Fault_plan.faults
      in
      match
        Runner.replay ~config:(Runner.config ordering) ~seed
          (Fault_plan.with_faults plan faults)
      with
      | Runner.Pass _ -> ()
      | Runner.Fail r ->
        Alcotest.failf "%s seed %d:@.%a" name seed Runner.pp_report r)
    shrunk_total_order_plans

(* --- parallel engine ------------------------------------------------------ *)

let causal_impls = [ ("bss", Runner.config Config.Causal); ("pc", pc) ]

let par_fp ~config ~domains seed =
  Runner.fingerprint
    (Runner.run_seed ~engine_impl:(Engine.Parallel { domains }) ~config ~seed
       ())

let test_cross_domain_fingerprints () =
  (* The tentpole determinism contract: the same seed yields a byte-identical
     verdict fingerprint (sends, deliveries, violation) for every domain
     count, for both causal implementations. [Parallel {domains = 1}]
     is the anchor — domains=2 and 4 only repartition the same lanes. *)
  List.iter
    (fun (name, config) ->
      List.iter
        (fun seed ->
          let f1 = par_fp ~config ~domains:1 seed in
          let f2 = par_fp ~config ~domains:2 seed in
          let f4 = par_fp ~config ~domains:4 seed in
          check_string (Printf.sprintf "%s seed %d d1=d2" name seed) f1 f2;
          check_string (Printf.sprintf "%s seed %d d1=d4" name seed) f1 f4)
        [ 0; 1; 2; 3; 4 ])
    causal_impls

let test_parallel_sweep_clean () =
  (* The full fault battery (loss and duplication bursts, partitions,
     crashes, joins) under the parallel engine: the oracles must find
     nothing, same as the sequential sweeps above. *)
  List.iter
    (fun (name, config) ->
      let result =
        Runner.sweep
          ~engine_impl:(Engine.Parallel { domains = 2 })
          ~config ~seeds:25 ()
      in
      match result.Runner.failed with
      | None -> check_int (name ^ " seeds passed") 25 result.Runner.passed
      | Some report ->
        Alcotest.failf "parallel %s sweep found a violation:@.%a" name
          Runner.pp_report report)
    causal_impls

(* A star workload with a fixed latency makes the receiver's delivery log
   literally equal to the order one barrier hands it: seven lanes each send
   the sink one message at the same instant, so all seven arrivals tie on
   time and only their keys' source lanes order them. *)
let merge_order_log ~domains =
  let net = Net.create ~latency:(Net.Fixed (Sim_time.us 700)) () in
  let engine =
    Engine.create ~impl:(Engine.Parallel { domains }) ~seed:11L ~net ()
  in
  let log = Buffer.create 64 in
  let sink =
    Engine.spawn engine ~name:"sink" (fun _ env ->
        Buffer.add_string log (Printf.sprintf "%d;" env.Engine.src))
  in
  let senders =
    List.init 7 (fun i ->
        Engine.spawn engine ~name:(Printf.sprintf "s%d" i) (fun _ _ -> ()))
  in
  List.iter
    (fun p ->
      Engine.at engine ~owner:p (Sim_time.us 1_000) (fun () ->
          Engine.send engine ~src:p ~dst:sink p))
    senders;
  Engine.run ~until:(Sim_time.ms 5) engine;
  Buffer.contents log

let test_barrier_ties_in_lane_order () =
  let d1 = merge_order_log ~domains:1 in
  check_string "tied arrivals run in source-lane order" "1;2;3;4;5;6;7;" d1;
  check_string "d2 matches d1" d1 (merge_order_log ~domains:2)

let test_plan_generation_deterministic () =
  let profile = Fault_plan.default_profile in
  let show plan = Format.asprintf "%a" Fault_plan.pp plan in
  List.iter
    (fun seed ->
      check_string
        (Printf.sprintf "plan for seed %d" seed)
        (show (Fault_plan.generate ~seed profile))
        (show (Fault_plan.generate ~seed profile)))
    [ 0; 3; 99 ]

(* --- mutation: the checker must catch a broken stack --------------------- *)

(* Disable the BSS delivery condition in the causal delivery queue and confirm
   the checker convicts the stack within the standard 100-seed budget,
   reporting a seed, a shrunk fault plan, and a delivery trace. *)
let with_broken_causal_check f =
  Delivery_queue.chaos_disable_causal_check := true;
  Fun.protect
    ~finally:(fun () -> Delivery_queue.chaos_disable_causal_check := false)
    f

let find_broken_report () =
  with_broken_causal_check (fun () ->
      let result =
        Runner.sweep ~config:(Runner.config Config.Causal) ~seeds:sweep_seeds
          ()
      in
      match result.Runner.failed with
      | Some report -> report
      | None ->
        Alcotest.fail
          "checker failed to catch the disabled causal delivery condition")

(* The first line of a rendered report: it names the seed, the ordering and
   every setting that differs from [Runner.config]'s. *)
let report_header r =
  List.hd (String.split_on_char '\n' (Format.asprintf "%a" Runner.pp_report r))

let test_broken_bss_is_caught () =
  let report = find_broken_report () in
  check_string "causal oracle convicts" "causal-order"
    report.Runner.violation.Oracle.oracle;
  check_string "header names no setting"
    (Printf.sprintf "counterexample (seed %d, causal, shrunk)"
       report.Runner.seed)
    (report_header report);
  check_bool "counterexample was shrunk" true report.Runner.shrunk;
  check_bool "trace names the implicated messages" true
    (String.length report.Runner.trace > 0
    && report.Runner.violation.Oracle.uids <> []);
  (* the shrunk plan is itself a complete reproducer: replaying it (without
     re-shrinking) under the same seed fails the same oracle *)
  with_broken_causal_check (fun () ->
      match
        Runner.replay ~config:report.Runner.config ~seed:report.Runner.seed
          report.Runner.plan
      with
      | Runner.Fail replayed ->
        check_string "replay convicts the same oracle"
          report.Runner.violation.Oracle.oracle
          replayed.Runner.violation.Oracle.oracle
      | Runner.Pass _ -> Alcotest.fail "shrunk plan no longer reproduces");
  (* with the stack healed, the very same seed passes again *)
  match
    Runner.run_seed ~config:report.Runner.config ~seed:report.Runner.seed ()
  with
  | Runner.Pass _ -> ()
  | Runner.Fail r ->
    Alcotest.failf "healed stack still fails:@.%a" Runner.pp_report r

let test_broken_bss_deterministic () =
  (* The conviction itself is reproducible: two independent hunts produce the
     same seed, plan, and violation. *)
  let show r = Format.asprintf "%a" Runner.pp_report r in
  let a = find_broken_report () in
  let b = find_broken_report () in
  check_string "identical counterexample reports" (show a) (show b)

(* Same drill for PC-broadcast: its causal guarantee rests entirely on
   forward-on-first-delivery over FIFO links. Turn the forwarding off and
   the per-origin contiguity gate alone must let a reaction overtake its
   trigger somewhere in the 100-seed budget. *)
let with_broken_pc_forwarding f =
  Pc_causal.chaos_disable_forwarding := true;
  Fun.protect
    ~finally:(fun () -> Pc_causal.chaos_disable_forwarding := false)
    f

let find_broken_pc_report () =
  with_broken_pc_forwarding (fun () ->
      let result = Runner.sweep ~config:pc ~seeds:sweep_seeds () in
      match result.Runner.failed with
      | Some report -> report
      | None ->
        Alcotest.fail "checker failed to catch disabled PC forwarding")

let test_broken_pc_is_caught () =
  let report = find_broken_pc_report () in
  check_string "causal oracle convicts" "causal-order"
    report.Runner.violation.Oracle.oracle;
  check_string "header names the causal layer"
    (Printf.sprintf "counterexample (seed %d, causal, pc causal layer, shrunk)"
       report.Runner.seed)
    (report_header report);
  check_bool "counterexample was shrunk" true report.Runner.shrunk;
  with_broken_pc_forwarding (fun () ->
      match
        Runner.replay ~config:report.Runner.config ~seed:report.Runner.seed
          report.Runner.plan
      with
      | Runner.Fail replayed ->
        check_string "replay convicts the same oracle"
          report.Runner.violation.Oracle.oracle
          replayed.Runner.violation.Oracle.oracle
      | Runner.Pass _ -> Alcotest.fail "shrunk plan no longer reproduces");
  (* with forwarding restored, the very same seed passes again *)
  match
    Runner.run_seed ~config:report.Runner.config ~seed:report.Runner.seed ()
  with
  | Runner.Pass _ -> ()
  | Runner.Fail r ->
    Alcotest.failf "healed pc stack still fails:@.%a" Runner.pp_report r

let test_broken_pc_deterministic () =
  let show r = Format.asprintf "%a" Runner.pp_report r in
  let a = find_broken_pc_report () in
  let b = find_broken_pc_report () in
  check_string "identical pc counterexample reports" (show a) (show b)

(* Sparse-clock drill: make the cached minima lie (report each column's
   maximum and fire the advance callback on every increase). Stability then
   releases messages not every member holds, flush rounds re-disseminate
   too little, and some oracle must convict within the sweep budget. *)
let with_overstated_minima f =
  Sparse_matrix_clock.chaos_overstate_minima := true;
  Fun.protect
    ~finally:(fun () -> Sparse_matrix_clock.chaos_overstate_minima := false)
    f

let find_overstated_minima_report () =
  with_overstated_minima (fun () ->
      let result =
        Runner.sweep
          ~config:
            { (Runner.config Config.Causal) with
              Config.stability_clock = Config.Sparse_clock }
          ~seeds:sweep_seeds ()
      in
      match result.Runner.failed with
      | Some report -> report
      | None ->
        Alcotest.fail "checker failed to catch the overstated minima cache")

let test_overstated_minima_caught () =
  let report = find_overstated_minima_report () in
  check_bool "counterexample was shrunk" true report.Runner.shrunk;
  check_string "header names the clock"
    (Printf.sprintf "counterexample (seed %d, causal, sparse clock, shrunk)"
       report.Runner.seed)
    (report_header report);
  check_bool "an oracle named the violation" true
    (String.length report.Runner.violation.Oracle.oracle > 0);
  with_overstated_minima (fun () ->
      match
        Runner.replay ~config:report.Runner.config ~seed:report.Runner.seed
          report.Runner.plan
      with
      | Runner.Fail replayed ->
        check_string "replay convicts the same oracle"
          report.Runner.violation.Oracle.oracle
          replayed.Runner.violation.Oracle.oracle
      | Runner.Pass _ -> Alcotest.fail "shrunk plan no longer reproduces");
  (* with the cache healed, the very same seed passes under the sparse
     clock again *)
  match
    Runner.run_seed ~config:report.Runner.config ~seed:report.Runner.seed ()
  with
  | Runner.Pass _ -> ()
  | Runner.Fail r ->
    Alcotest.failf "healed sparse clock still fails:@.%a" Runner.pp_report r

(* --- suite --------------------------------------------------------------- *)

let () =
  Alcotest.run "repro_check"
    [
      ( "sweeps",
        List.map
          (fun (name, ordering) ->
            Alcotest.test_case
              (Printf.sprintf "%s %d seeds clean" name sweep_seeds)
              `Slow (test_sweep (Runner.config ordering)))
          Runner.orderings );
      ( "sweeps-pc",
        [
          Alcotest.test_case
            (Printf.sprintf "cbcast/pc %d seeds clean" sweep_seeds)
            `Slow test_sweep_pc;
          Alcotest.test_case
            (Printf.sprintf "cbcast/pc encoded %d seeds clean" sweep_seeds)
            `Slow test_sweep_pc_encoded;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed same verdict" `Quick
            test_deterministic_verdicts;
          Alcotest.test_case "pc same seed same verdict" `Quick
            test_pc_deterministic_verdicts;
          Alcotest.test_case "dense = sparse clock fingerprints" `Slow
            test_cross_clock_verdicts;
          Alcotest.test_case "bss and pc verdicts agree" `Slow
            test_vector_pc_agreement;
          Alcotest.test_case "entry points agree on every setting" `Slow
            test_entry_points_agree;
          Alcotest.test_case "plan generation" `Quick
            test_plan_generation_deterministic;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "shrunk total-order plans pass" `Quick
            test_shrunk_total_order_plans;
        ] );
      (* Alcotest truncates test names against the longest group label
         (22 characters, this one); a longer label would shorten every
         printed name in this binary. *)
      ( "fingerprint-regression",
        [
          Alcotest.test_case "bss fingerprints pinned" `Slow
            test_bss_fingerprints_pinned;
          Alcotest.test_case "pc fingerprints pinned" `Slow
            test_pc_fingerprints_pinned;
          Alcotest.test_case "bss delivery sequence pinned" `Slow
            test_bss_delivery_sequence_pinned;
          Alcotest.test_case "pc delivery sequence pinned" `Slow
            test_pc_delivery_sequence_pinned;
          Alcotest.test_case "parallel delivery sequence pinned" `Slow
            test_parallel_delivery_sequence_pinned;
          Alcotest.test_case "stability timing pinned" `Slow
            test_stability_timing_pinned;
        ] );
      ( "parallel-engine",
        [
          Alcotest.test_case "fingerprints identical at domains 1/2/4" `Slow
            test_cross_domain_fingerprints;
          Alcotest.test_case "25 seeds clean at domains=2" `Slow
            test_parallel_sweep_clean;
          Alcotest.test_case "barrier ties in lane order" `Quick
            test_barrier_ties_in_lane_order;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "broken BSS caught and shrunk" `Slow
            test_broken_bss_is_caught;
          Alcotest.test_case "conviction deterministic" `Slow
            test_broken_bss_deterministic;
          Alcotest.test_case "broken PC forwarding caught and shrunk" `Slow
            test_broken_pc_is_caught;
          Alcotest.test_case "pc conviction deterministic" `Slow
            test_broken_pc_deterministic;
          Alcotest.test_case "overstated minima cache caught and shrunk" `Slow
            test_overstated_minima_caught;
          Alcotest.test_case "oracles convict hand-built logs" `Quick
            test_oracles_convict_hand_built_logs;
        ] );
    ]
