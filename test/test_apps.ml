(* Integration tests: every application scenario must exhibit the paper's
   claimed behaviour — the anomaly under CATOCS, its absence under the
   state-level technique, and the cost relations between the designs. *)

module Shop_floor = Repro_apps.Shop_floor
module Fire_alarm = Repro_apps.Fire_alarm
module Trading = Repro_apps.Trading
module Netnews = Repro_apps.Netnews
module Deceit_store = Repro_apps.Deceit_store
module Harp_store = Repro_apps.Harp_store
module Snapshot = Repro_apps.Snapshot
module Rpc_deadlock = Repro_apps.Rpc_deadlock
module Drilling = Repro_apps.Drilling
module Oven = Repro_apps.Oven
module Config = Repro_catocs.Config
module Exec = Repro_analyze.Exec
module Recorder = Repro_analyze.Exec.Recorder

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- shop floor (Fig 2) ---------------------------------------------------- *)

let test_shop_floor_anomaly_and_fix () =
  let r = Shop_floor.run Shop_floor.default_config in
  check_bool "CATOCS view shows anomalies" true (r.Shop_floor.naive_anomalies > 0);
  check_int "versioned replica never wrong" 0 r.Shop_floor.versioned_anomalies;
  check_bool "replica rejected the reordered notifications" true
    (r.Shop_floor.stale_rejected >= r.Shop_floor.naive_anomalies)

let test_shop_floor_deterministic () =
  let a = Shop_floor.run Shop_floor.default_config in
  let b = Shop_floor.run Shop_floor.default_config in
  check_int "same seed, same anomaly count" a.Shop_floor.naive_anomalies
    b.Shop_floor.naive_anomalies

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec scan i = i + m <= n && (String.sub s i m = sub || scan (i + 1)) in
  scan 0

(* The recorded run draws as a diagram: a database column with its writes,
   and the notifications under their labels. *)
let test_shop_floor_diagram_capture () =
  let config = { Shop_floor.default_config with Shop_floor.trials = 2 } in
  let recorder = Recorder.create ~label:"shop floor" () in
  ignore (Shop_floor.run ~recorder config);
  let d = Exec.render_diagram (Recorder.exec recorder) in
  check_bool "diagram non-empty" true (String.length d > 100);
  check_bool "database column" true (contains ~sub:"| database" d);
  check_bool "database writes" true (contains ~sub:"db put lot0001=" d);
  check_bool "labelled notifications" true (contains ~sub:"send notify " d);
  check_bool "no client column" false (contains ~sub:"client" d)

let test_shop_floor_recording_changes_nothing_else () =
  let plain = Shop_floor.run Shop_floor.default_config in
  let recorder = Recorder.create ~label:"shop floor" () in
  let recorded = Shop_floor.run ~recorder Shop_floor.default_config in
  check_bool "something recorded" true
    ((Recorder.exec recorder).Exec.sends <> []);
  check_bool "same result" true (recorded = plain)

(* --- fire alarm (Fig 3) ----------------------------------------------------- *)

let test_fire_alarm_causal () =
  let r = Fire_alarm.run Fire_alarm.default_config in
  check_bool "causal multicast shows anomalies" true (r.Fire_alarm.naive_anomalies > 0);
  check_int "timestamps never wrong" 0 r.Fire_alarm.timestamped_anomalies

let test_fire_alarm_total_order_does_not_help () =
  let config =
    { Fire_alarm.default_config with
      Fire_alarm.ordering = Config.Total_sequencer }
  in
  let r = Fire_alarm.run config in
  check_bool "total order also anomalous" true (r.Fire_alarm.naive_anomalies > 0);
  check_int "timestamps still right" 0 r.Fire_alarm.timestamped_anomalies

let test_fire_alarm_recording_changes_nothing_else () =
  let plain = Fire_alarm.run Fire_alarm.default_config in
  let recorder = Recorder.create ~label:"fire alarm" () in
  let recorded = Fire_alarm.run ~recorder Fire_alarm.default_config in
  check_bool "something recorded" true
    ((Recorder.exec recorder).Exec.sends <> []);
  check_bool "same result" true (recorded = plain)

(* --- trading (Fig 4) --------------------------------------------------------- *)

let test_trading_false_crossings () =
  List.iter
    (fun ordering ->
      let r = Trading.run { Trading.default_config with Trading.ordering } in
      check_bool
        (Config.ordering_name ordering ^ " shows false crossings")
        true
        (r.Trading.naive_false_crossings > 0);
      check_int
        (Config.ordering_name ordering ^ " dep-cache never crosses")
        0 r.Trading.dep_cache_false_crossings)
    [ Config.Causal; Config.Total_sequencer ]

(* --- netnews ------------------------------------------------------------------ *)

let test_netnews_modes () =
  let naive = Netnews.run Netnews.Fifo_naive in
  let cache = Netnews.run Netnews.Fifo_dep_cache in
  let causal = Netnews.run Netnews.Causal in
  check_bool "fifo-naive misorders" true (naive.Netnews.misordered_displays > 0);
  check_int "dep-cache never misorders" 0 cache.Netnews.misordered_displays;
  check_bool "dep-cache parks instead" true (cache.Netnews.parked_responses > 0);
  check_int "causal never misorders" 0 causal.Netnews.misordered_displays;
  check_bool "causal pays bigger headers" true
    (causal.Netnews.header_bytes > cache.Netnews.header_bytes)

(* --- replicated stores --------------------------------------------------------- *)

let test_deceit_k_latency_monotone () =
  let latency k =
    (Deceit_store.run
       { Deceit_store.default_config with Deceit_store.write_safety = k })
      .Deceit_store.ack_latency_mean_us
  in
  let l0 = latency 0 and l1 = latency 1 and l2 = latency 2 in
  check_bool "k=0 fastest (async)" true (l0 < l1);
  check_bool "k=2 slowest (synchronous)" true (l1 < l2)

let test_deceit_healthy_consistent () =
  let r = Deceit_store.run Deceit_store.default_config in
  check_int "all acked" r.Deceit_store.writes_attempted r.Deceit_store.writes_acked;
  check_bool "replicas consistent" true r.Deceit_store.replicas_consistent;
  check_int "nothing lost" 0 r.Deceit_store.acked_lost_at_survivor

let test_deceit_crash_keeps_consistency () =
  let r =
    Deceit_store.run
      { Deceit_store.default_config with
        Deceit_store.crash = Some (1, Sim_time.ms 300) }
  in
  check_bool "view change happened" true (r.Deceit_store.view_changes >= 1);
  check_bool "survivors consistent" true r.Deceit_store.replicas_consistent;
  check_int "no acked write lost" 0 r.Deceit_store.acked_lost_at_survivor

let test_harp_healthy () =
  let r = Harp_store.run None in
  check_int "all acked" r.Harp_store.writes_attempted r.Harp_store.writes_acked;
  check_bool "consistent" true r.Harp_store.replicas_consistent;
  check_int "nothing lost" 0 r.Harp_store.acked_lost_at_survivor;
  check_int "no aborts when healthy" 0 r.Harp_store.commit_aborts

let test_harp_replica_crash_durable () =
  let r =
    Harp_store.run (Some (1, Sim_time.ms 300))
  in
  check_int "no acked write lost" 0 r.Harp_store.acked_lost_at_survivor;
  check_bool "consistent" true r.Harp_store.replicas_consistent;
  check_bool "most writes acked" true
    (r.Harp_store.writes_acked >= (r.Harp_store.writes_attempted * 9) / 10)

let test_harp_primary_crash_durable () =
  let r =
    Harp_store.run (Some (0, Sim_time.ms 300))
  in
  check_int "no acked write lost" 0 r.Harp_store.acked_lost_at_survivor;
  check_bool "consistent" true r.Harp_store.replicas_consistent;
  check_bool "failover kept most writes" true
    (r.Harp_store.writes_acked >= (r.Harp_store.writes_attempted * 8) / 10)

(* --- bank transfers (limitation 2) ----------------------------------------- *)

module Bank_transfer = Repro_apps.Bank_transfer

let test_bank_catocs_splits_transfers () =
  let r = Bank_transfer.run Bank_transfer.Catocs_ops in
  check_bool "some transfers split" true (r.Bank_transfer.split_transfers > 0);
  check_bool "money created" true (r.Bank_transfer.final_sum_error > 0);
  check_bool "observer saw non-conservation" true
    (r.Bank_transfer.conservation_violations > 0);
  check_bool "replicas still agree (total order)" true
    r.Bank_transfer.replicas_agree;
  check_int "delivery-time checks prevent overdrafts" 0
    r.Bank_transfer.overdrafts

let test_bank_transactional_exact () =
  let r = Bank_transfer.run Bank_transfer.Transactional in
  check_int "no split transfers" 0 r.Bank_transfer.split_transfers;
  check_int "money conserved exactly" 0 r.Bank_transfer.final_sum_error;
  check_int "observer never saw non-conservation" 0
    r.Bank_transfer.conservation_violations;
  check_int "no overdrafts" 0 r.Bank_transfer.overdrafts;
  check_bool "replicas agree" true r.Bank_transfer.replicas_agree;
  check_int "every transfer applied or aborted" r.Bank_transfer.transfers_attempted
    (r.Bank_transfer.transfers_applied + r.Bank_transfer.aborted_transfers)

(* --- register service (linearizability) ------------------------------------ *)

module Register_service = Repro_apps.Register_service

let test_register_read_any_violates_somewhere () =
  let violations = ref 0 in
  for seed = 1 to 20 do
    let r =
      Register_service.run
        { Register_service.default_config with
          Register_service.seed = Int64.of_int seed }
    in
    if not r.Register_service.linearizable then incr violations
  done;
  check_bool "read-any breaks linearizability in some runs" true (!violations > 0)

let test_register_read_primary_linearizable () =
  for seed = 1 to 20 do
    let r =
      Register_service.run
        { Register_service.seed = Int64.of_int seed;
          read_mode = Register_service.Read_primary }
    in
    check_bool
      (Printf.sprintf "seed %d linearizable" seed)
      true r.Register_service.linearizable
  done

(* --- snapshots -------------------------------------------------------------------- *)

let test_snapshot_both_consistent () =
  let catocs = Snapshot.run Snapshot.Catocs_cut in
  let markers = Snapshot.run Snapshot.Chandy_lamport in
  check_bool "catocs cut consistent" true catocs.Snapshot.snapshot_consistent;
  check_bool "marker cut consistent" true markers.Snapshot.snapshot_consistent;
  check_bool "catocs taxes all traffic" true
    (catocs.Snapshot.total_messages > 5 * markers.Snapshot.total_messages);
  check_bool "catocs pays ordering headers" true
    (catocs.Snapshot.ordering_header_bytes > 0);
  check_int "markers pay no headers" 0 markers.Snapshot.ordering_header_bytes

(* --- rpc deadlock ------------------------------------------------------------------- *)

let test_rpc_both_detect_cheaper_periodic () =
  let vr = Rpc_deadlock.run Rpc_deadlock.Van_renesse in
  let periodic = Rpc_deadlock.run Rpc_deadlock.Periodic_waitfor in
  check_bool "van renesse detects" true vr.Rpc_deadlock.deadlock_detected;
  check_bool "periodic detects" true periodic.Rpc_deadlock.deadlock_detected;
  check_int "vr no false alarms" 0 vr.Rpc_deadlock.false_alarms;
  check_int "periodic no false alarms" 0 periodic.Rpc_deadlock.false_alarms;
  check_bool "periodic an order of magnitude cheaper" true
    (float_of_int periodic.Rpc_deadlock.messages_total
     < float_of_int vr.Rpc_deadlock.messages_total /. 10.0);
  check_bool "periodic latency bounded by period" true
    (periodic.Rpc_deadlock.detection_latency_ms <= 110.0)

(* --- drilling ------------------------------------------------------------------------ *)

let test_drilling_safety_both_modes () =
  List.iter
    (fun mode ->
      List.iter
        (fun crash ->
          let r = Drilling.run { Drilling.mode; crash } in
          check_int (Drilling.mode_name mode ^ ": no double drilling") 0
            r.Drilling.double_drilled;
          check_int
            (Drilling.mode_name mode ^ ": every hole drilled or checked")
            r.Drilling.holes
            (r.Drilling.drilled_once + r.Drilling.check_list))
        [ None; Some (2, Sim_time.ms 100) ])
    [ Drilling.Central_controller; Drilling.Catocs_scheduling ]

let test_drilling_central_linear_messages () =
  let central = Drilling.run { Drilling.default_config with Drilling.mode = Drilling.Central_controller } in
  let catocs = Drilling.run { Drilling.default_config with Drilling.mode = Drilling.Catocs_scheduling } in
  check_bool "central is ~3 msgs per hole" true
    (central.Drilling.messages_per_hole <= 3.5);
  check_bool "catocs costs much more" true
    (catocs.Drilling.messages_per_hole > 2.0 *. central.Drilling.messages_per_hole)

(* --- oven ----------------------------------------------------------------------------- *)

let test_oven_loss_hurts_catocs_more () =
  let run mode drop =
    Oven.run { Oven.mode; drop_probability = drop }
  in
  let catocs = run Oven.Catocs_group 0.2 in
  let stamped = run Oven.Timestamped_freshest 0.2 in
  check_bool "catocs staleness worse under loss" true
    (catocs.Oven.mean_staleness_ms > stamped.Oven.mean_staleness_ms);
  check_bool "catocs tracking error worse under loss" true
    (catocs.Oven.mean_tracking_error > stamped.Oven.mean_tracking_error);
  check_bool "catocs costs far more messages" true
    (catocs.Oven.messages_total > 10 * stamped.Oven.messages_total)

let test_oven_temperature_profile () =
  Alcotest.(check (float 1e-9)) "t=0" 200.0 (Oven.true_temperature 0);
  Alcotest.(check (float 1e-6)) "quarter period peak" 230.0
    (Oven.true_temperature (Sim_time.ms 500))

(* --- cross-cutting: determinism of every app runner -------------------------- *)

let test_apps_deterministic () =
  let t1 = Trading.run Trading.default_config in
  let t2 = Trading.run Trading.default_config in
  check_int "trading deterministic" t1.Trading.naive_false_crossings
    t2.Trading.naive_false_crossings;
  let n1 = Netnews.run Netnews.Fifo_naive in
  let n2 = Netnews.run Netnews.Fifo_naive in
  check_int "netnews deterministic" n1.Netnews.misordered_displays
    n2.Netnews.misordered_displays;
  let b1 = Bank_transfer.run Bank_transfer.Catocs_ops in
  let b2 = Bank_transfer.run Bank_transfer.Catocs_ops in
  check_int "bank deterministic" b1.Bank_transfer.split_transfers
    b2.Bank_transfer.split_transfers;
  let r1 = Register_service.run Register_service.default_config in
  let r2 = Register_service.run Register_service.default_config in
  check_bool "register deterministic" true
    (r1.Register_service.linearizable = r2.Register_service.linearizable)

let () =
  Alcotest.run "repro_apps"
    [
      ( "shop-floor",
        [
          Alcotest.test_case "anomaly and fix" `Slow test_shop_floor_anomaly_and_fix;
          Alcotest.test_case "deterministic" `Slow test_shop_floor_deterministic;
          Alcotest.test_case "diagram capture" `Quick test_shop_floor_diagram_capture;
          Alcotest.test_case "recording changes nothing else" `Slow
            test_shop_floor_recording_changes_nothing_else;
        ] );
      ( "fire-alarm",
        [
          Alcotest.test_case "causal anomalous, timestamps right" `Slow
            test_fire_alarm_causal;
          Alcotest.test_case "total order does not help" `Slow
            test_fire_alarm_total_order_does_not_help;
          Alcotest.test_case "recording changes nothing else" `Slow
            test_fire_alarm_recording_changes_nothing_else;
        ] );
      ( "trading",
        [ Alcotest.test_case "false crossings" `Slow test_trading_false_crossings ] );
      ("netnews", [ Alcotest.test_case "three schemes" `Slow test_netnews_modes ]);
      ( "replicated",
        [
          Alcotest.test_case "deceit k latency monotone" `Slow
            test_deceit_k_latency_monotone;
          Alcotest.test_case "deceit healthy" `Slow test_deceit_healthy_consistent;
          Alcotest.test_case "deceit crash consistent" `Slow
            test_deceit_crash_keeps_consistency;
          Alcotest.test_case "harp healthy" `Slow test_harp_healthy;
          Alcotest.test_case "harp replica crash durable" `Slow
            test_harp_replica_crash_durable;
          Alcotest.test_case "harp primary crash durable" `Slow
            test_harp_primary_crash_durable;
        ] );
      ( "bank-transfer",
        [
          Alcotest.test_case "catocs splits transfers" `Slow
            test_bank_catocs_splits_transfers;
          Alcotest.test_case "transactional exact" `Slow
            test_bank_transactional_exact;
        ] );
      ( "register",
        [
          Alcotest.test_case "read-any violates" `Slow
            test_register_read_any_violates_somewhere;
          Alcotest.test_case "read-primary linearizable" `Slow
            test_register_read_primary_linearizable;
        ] );
      ( "snapshot",
        [ Alcotest.test_case "both cuts consistent" `Slow test_snapshot_both_consistent ] );
      ( "rpc-deadlock",
        [
          Alcotest.test_case "both detect, periodic cheaper" `Slow
            test_rpc_both_detect_cheaper_periodic;
        ] );
      ( "drilling",
        [
          Alcotest.test_case "safety both modes" `Slow test_drilling_safety_both_modes;
          Alcotest.test_case "central linear messages" `Slow
            test_drilling_central_linear_messages;
        ] );
      ( "determinism",
        [ Alcotest.test_case "same seed, same results" `Slow test_apps_deterministic ] );
      ( "oven",
        [
          Alcotest.test_case "loss hurts catocs more" `Slow
            test_oven_loss_hurts_catocs_more;
          Alcotest.test_case "temperature profile" `Quick test_oven_temperature_profile;
        ] );
    ]
