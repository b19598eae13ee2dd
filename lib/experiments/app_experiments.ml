module Config = Repro_catocs.Config
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

let rate n total = float_of_int n /. float_of_int (max 1 total)

let fig2_hidden_channel () =
  let row gap_ms =
    let config =
      { Shop_floor.default_config with
        Shop_floor.request_gap = Sim_time.ms gap_ms }
    in
    let r = Shop_floor.run config in
    [ Table.cell_int gap_ms;
      Table.cell_int r.Shop_floor.trials;
      Table.cell_pct (rate r.Shop_floor.naive_anomalies r.Shop_floor.trials);
      Table.cell_pct (rate r.Shop_floor.versioned_anomalies r.Shop_floor.trials);
      Table.cell_int r.Shop_floor.stale_rejected ]
  in
  Table.make ~id:"fig2-hidden-channel"
    ~title:"shop floor: hidden channel through a shared database"
    ~paper_ref:"Figure 2 / Section 3 limitation 1"
    ~columns:
      [ "request gap (ms)"; "trials"; "CATOCS naive anomalies";
        "versioned-replica anomalies"; "stale notifications rejected" ]
    ~notes:
      [ "anomaly: observer's view of the lot disagrees with the database after both notifications";
        "causal multicast cannot see the database ordering; version numbers can" ]
    (List.map row [ 4; 8; 16 ])

let fig3_external_channel () =
  let row (ordering, gap_ms) =
    let config =
      { Fire_alarm.default_config with
        Fire_alarm.ordering; event_gap = Sim_time.ms gap_ms }
    in
    let r = Fire_alarm.run config in
    [ Config.ordering_name ordering;
      Table.cell_int gap_ms;
      Table.cell_pct (rate r.Fire_alarm.naive_anomalies r.Fire_alarm.trials);
      Table.cell_pct
        (rate r.Fire_alarm.timestamped_anomalies r.Fire_alarm.trials) ]
  in
  Table.make ~id:"fig3-external-channel"
    ~title:"fire alarm: causality through the physical world"
    ~paper_ref:"Figure 3 / Section 3 limitation 1"
    ~columns:
      [ "ordering"; "event gap (ms)"; "CATOCS last-report anomalies";
        "timestamped-freshest anomalies" ]
    ~notes:
      [ "the second \"fire\" and \"fire out\" are concurrent: total order does not help";
        "sub-millisecond clock sync vs events milliseconds apart" ]
    (List.concat_map
       (fun ordering -> List.map (fun g -> row (ordering, g)) [ 4; 6; 10 ])
       [ Config.Causal; Config.Total_sequencer ])

let fig4_trading () =
  let row ordering =
    let config = { Trading.default_config with Trading.ordering } in
    let r = Trading.run config in
    [ Config.ordering_name ordering;
      Table.cell_int r.Trading.ticks;
      Table.cell_int r.Trading.naive_false_crossings;
      Table.cell_int r.Trading.naive_stale_pairings;
      Table.cell_int r.Trading.dep_cache_false_crossings;
      Table.cell_us_as_ms r.Trading.mean_display_lag_us ]
  in
  Table.make ~id:"fig4-trading"
    ~title:"trading floor: theoretical price vs underlying option price"
    ~paper_ref:"Figure 4 / Section 4.1, limitation 3"
    ~columns:
      [ "ordering"; "price ticks"; "naive false crossings";
        "naive stale pairings"; "dep-cache false crossings"; "dep-cache lag" ]
    ~notes:
      [ "the semantic constraint (theo after its base, before later bases) exceeds happens-before";
        "dependency fields pair each computed price with its base version: crossings impossible" ]
    (List.map row [ Config.Causal; Config.Total_sequencer ])

let netnews () =
  let row mode =
    let r = Netnews.run mode in
    [ Netnews.mode_name mode;
      Table.cell_int r.Netnews.articles_delivered;
      Table.cell_int r.Netnews.misordered_displays;
      Table.cell_int r.Netnews.parked_responses;
      Table.cell_us_as_ms r.Netnews.mean_inquiry_to_display_us;
      Table.cell_int r.Netnews.header_bytes;
      Table.cell_int r.Netnews.messages_sent ]
  in
  Table.make ~id:"netnews"
    ~title:"netnews: inquiry/response ordering"
    ~paper_ref:"Section 4.1"
    ~columns:
      [ "scheme"; "articles"; "misordered displays"; "responses parked";
        "response display latency"; "ordering header bytes"; "messages" ]
    ~notes:
      [ "dep-cache = the References-header fix: same zero misordering as causal multicast";
        "causal pays a vector timestamp on every article for the whole group" ]
    (List.map row
       [ Netnews.Fifo_naive; Netnews.Fifo_dep_cache; Netnews.Causal ])

let replicated_data () =
  let deceit_row label k crash =
    let r =
      Deceit_store.run
        { Deceit_store.default_config with
          Deceit_store.write_safety = k; crash }
    in
    [ label;
      Printf.sprintf "%d/%d" r.Deceit_store.writes_acked
        r.Deceit_store.writes_attempted;
      Table.cell_us_as_ms r.Deceit_store.ack_latency_mean_us;
      Table.cell_us_as_ms r.Deceit_store.ack_latency_p99_us;
      Table.cell_float ~decimals:1 r.Deceit_store.messages_per_write;
      Table.cell_int r.Deceit_store.acked_lost_at_survivor;
      Table.cell_bool r.Deceit_store.replicas_consistent ]
  in
  let harp_row label crash =
    let r = Harp_store.run crash in
    [ label;
      Printf.sprintf "%d/%d" r.Harp_store.writes_acked
        r.Harp_store.writes_attempted;
      Table.cell_us_as_ms r.Harp_store.ack_latency_mean_us;
      Table.cell_us_as_ms r.Harp_store.ack_latency_p99_us;
      Table.cell_float ~decimals:1 r.Harp_store.messages_per_write;
      Table.cell_int r.Harp_store.acked_lost_at_survivor;
      Table.cell_bool r.Harp_store.replicas_consistent ]
  in
  Table.make ~id:"replicated-data"
    ~title:"replicated store: Deceit-style CBCAST vs HARP-style transactions"
    ~paper_ref:"Section 4.4"
    ~columns:
      [ "scheme"; "acked"; "latency mean"; "latency p99"; "msgs/write";
        "acked writes lost"; "replicas consistent" ]
    ~notes:
      [ "deceit k = write-safety level: k=0 is asynchronous but not durable";
        "harp: two-phase commit over the availability list; stale retries refused at the state level";
        "unacked writes under crash were superseded or refused - never silently lost" ]
    [ deceit_row "deceit k=0" 0 None;
      deceit_row "deceit k=1" 1 None;
      deceit_row "deceit k=2 (all)" 2 None;
      deceit_row "deceit k=1 + replica crash" 1 (Some (1, Sim_time.ms 300));
      harp_row "harp" None;
      harp_row "harp + replica crash" (Some (1, Sim_time.ms 300));
      harp_row "harp + primary crash" (Some (0, Sim_time.ms 300)) ]

let predicate_detection () =
  let row mode =
    let r = Snapshot.run mode in
    [ Snapshot.mode_name mode;
      Table.cell_int r.Snapshot.transfers_completed;
      Table.cell_bool r.Snapshot.snapshot_consistent;
      Printf.sprintf "%d/%d" r.Snapshot.snapshot_sum r.Snapshot.expected_sum;
      Table.cell_int r.Snapshot.snapshot_messages;
      Table.cell_int r.Snapshot.total_messages;
      Table.cell_int r.Snapshot.ordering_header_bytes ]
  in
  Table.make ~id:"predicate-detection"
    ~title:"consistent cuts for global predicates (money conservation)"
    ~paper_ref:"Section 4.2"
    ~columns:
      [ "scheme"; "transfers"; "cut consistent"; "recorded/expected sum";
        "snapshot msgs"; "total msgs"; "ordering header bytes" ]
    ~notes:
      [ "catocs: every transfer is totally ordered multicast all the time";
        "markers: plain point-to-point transfers; cost paid only when a snapshot runs" ]
    (List.map row [ Snapshot.Catocs_cut; Snapshot.Chandy_lamport ])

let rpc_deadlock () =
  let row mode =
    let r = Rpc_deadlock.run mode in
    [ Rpc_deadlock.mode_name mode;
      Table.cell_int r.Rpc_deadlock.background_rpcs;
      Table.cell_bool r.Rpc_deadlock.deadlock_detected;
      Table.cell_float ~decimals:1 r.Rpc_deadlock.detection_latency_ms;
      Table.cell_int r.Rpc_deadlock.false_alarms;
      Table.cell_int r.Rpc_deadlock.messages_total;
      Table.cell_float ~decimals:2 r.Rpc_deadlock.messages_per_rpc ]
  in
  Table.make ~id:"rpc-deadlock"
    ~title:"RPC deadlock detection: causal multicast vs periodic wait-for"
    ~paper_ref:"Appendix 9.2"
    ~columns:
      [ "scheme"; "background rpcs"; "detected"; "latency (ms)";
        "false alarms"; "messages"; "msgs/rpc" ]
    ~notes:
      [ "van Renesse: 2 causal multicasts to the whole group per RPC";
        "periodic: instance-augmented wait-for edges to the monitor each period" ]
    (List.map row [ Rpc_deadlock.Van_renesse; Rpc_deadlock.Periodic_waitfor ])

let drilling () =
  let row (mode, crash) =
    let label =
      Printf.sprintf "%s%s" (Drilling.mode_name mode)
        (match crash with Some _ -> " + driller crash" | None -> "")
    in
    let r = Drilling.run { Drilling.mode; crash } in
    [ label;
      Printf.sprintf "%d/%d" r.Drilling.drilled_once r.Drilling.holes;
      Table.cell_int r.Drilling.double_drilled;
      Table.cell_int r.Drilling.check_list;
      Table.cell_int r.Drilling.messages_total;
      Table.cell_float ~decimals:1 r.Drilling.messages_per_hole;
      Table.cell_float ~decimals:0 r.Drilling.completion_time_ms ]
  in
  Table.make ~id:"drilling"
    ~title:"drilling cell: distributed CATOCS scheduling vs central controller"
    ~paper_ref:"Appendix 9.1"
    ~columns:
      [ "scheme"; "holes drilled once"; "double drilled"; "check list";
        "messages"; "msgs/hole"; "completion (ms)" ]
    ~notes:
      [ "both must drill every hole exactly once and survive a driller failure";
        "central controller: communication linear in holes (assign + done + mirror)" ]
    (List.map row
       [ (Drilling.Central_controller, None);
         (Drilling.Central_controller, Some (2, Sim_time.ms 100));
         (Drilling.Catocs_scheduling, None);
         (Drilling.Catocs_scheduling, Some (2, Sim_time.ms 100)) ])

let serialization () =
  let row mode =
    let module B = Repro_apps.Bank_transfer in
    let r = B.run mode in
    [ B.mode_name mode;
      Printf.sprintf "%d/%d" r.B.transfers_applied r.B.transfers_attempted;
      Table.cell_int r.B.aborted_transfers;
      Table.cell_int r.B.split_transfers;
      Table.cell_int r.B.final_sum_error;
      Table.cell_int r.B.conservation_violations;
      Table.cell_int r.B.overdrafts;
      Table.cell_bool r.B.replicas_agree ]
  in
  Table.make ~id:"serialization"
    ~title:"grouped updates (bank transfers): ordered ops vs transactions"
    ~paper_ref:"Section 3 limitation 2 (can't say together)"
    ~columns:
      [ "scheme"; "applied"; "refused"; "split transfers"; "money created";
        "observer saw non-conservation"; "overdrafts"; "replicas agree" ]
    ~notes:
      [ "catocs: debit and credit are separate (totally ordered) multicasts; a state-level \
refusal of one half cannot take the other half with it";
        "transactional: both halves are one atomic transaction; refusals abort the pair" ]
    (List.map row
       [ Repro_apps.Bank_transfer.Catocs_ops;
         Repro_apps.Bank_transfer.Transactional ])

let linearizability () =
  let module R = Repro_apps.Register_service in
  let row mode =
    let runs = 20 in
    let non_lin = ref 0 and stale = ref 0 and ops = ref 0 in
    for seed = 1 to runs do
      let r = R.run { R.read_mode = mode; seed = Int64.of_int seed } in
      if not r.R.linearizable then incr non_lin;
      stale := !stale + r.R.stale_reads;
      ops := !ops + r.R.operations
    done;
    [ R.mode_name mode;
      Table.cell_int runs;
      Table.cell_int !ops;
      Table.cell_int !non_lin;
      Table.cell_int !stale ]
  in
  Table.make ~id:"linearizability"
    ~title:"replicated register: client-observed consistency by read policy"
    ~paper_ref:"Section 4.4 (read-any/write-all) / Section 3 limitation 3"
    ~columns:
      [ "read policy"; "runs"; "operations"; "non-linearizable runs";
        "stale-read heuristic" ]
    ~notes:
      [ "writes cbcast with write-safety k=1; checked with the Wing-Gong linearizability search";
        "read-any: an acked write may be missing at the replica a read lands on";
        "read-primary: reads serialise through the writer - every run linearizable" ]
    (List.map row [ R.Read_any; R.Read_primary ])

let real_time () =
  let row (mode, drop) =
    let r = Oven.run { Oven.mode; drop_probability = drop } in
    [ Oven.mode_name mode;
      Table.cell_pct drop;
      Table.cell_float r.Oven.mean_tracking_error;
      Table.cell_float r.Oven.max_tracking_error;
      Table.cell_float ~decimals:1 r.Oven.mean_staleness_ms;
      Table.cell_int r.Oven.messages_total ]
  in
  Table.make ~id:"real-time"
    ~title:"oven monitoring: tracking error against the physical temperature"
    ~paper_ref:"Section 4.6 (sufficient consistency)"
    ~columns:
      [ "scheme"; "loss"; "mean |err| (degC)"; "max |err|";
        "mean staleness (ms)"; "messages" ]
    ~notes:
      [ "catocs: readings share a causal group with control traffic; loss needs retransmission";
        "timestamped: freshest reading wins, stale and lost ones simply ignored" ]
    (List.concat_map
       (fun drop ->
         List.map (fun mode -> row (mode, drop))
           [ Oven.Catocs_group; Oven.Timestamped_freshest ])
       [ 0.0; 0.1; 0.2 ])
