module Config = Repro_catocs.Config
module Stack = Repro_catocs.Stack
module Metrics = Repro_catocs.Metrics
module Shop_floor = Repro_apps.Shop_floor
module Fire_alarm = Repro_apps.Fire_alarm
module Trading = Repro_apps.Trading

type gossip_point = {
  gossip_period_ms : int;
  peak_node_unstable_bytes : int;
  control_messages : int;
  mean_delivery_delay_us : float;
}

let gossip_measure ~seed ~group_size ~period_ms =
  let net = Net.create ~latency:(Net.Uniform (500, 5_000)) () in
  let engine = Engine.create ~seed ~net () in
  let config =
    { Config.default with
      Config.ordering = Config.Causal;
      gossip_period = Sim_time.ms period_ms }
  in
  let stacks =
    Stack.create_group ~engine ~config
      ~names:(List.init group_size (fun i -> Printf.sprintf "p%d" i)) ()
  in
  Array.iteri
    (fun i stack ->
      let cancel =
        Engine.every engine ~owner:(Stack.self stack)
          ~start:(Sim_time.us (1_000 + (i * 149)))
          ~period:(Sim_time.ms 10)
          (fun () -> Stack.multicast stack i)
      in
      Engine.at engine (Sim_time.seconds 1) cancel)
    stacks;
  Engine.run ~until:(Sim_time.add (Sim_time.seconds 1) (Sim_time.ms 100)) engine;
  let peak = ref 0 and control = ref 0 in
  let delay = Stats.Summary.create () in
  Array.iter
    (fun stack ->
      let m = Stack.metrics stack in
      peak := max !peak m.Metrics.peak_unstable_bytes;
      control := !control + m.Metrics.control_messages;
      if Stats.Summary.count m.Metrics.delivery_delay_us > 0 then
        Stats.Summary.add delay (Stats.Summary.mean m.Metrics.delivery_delay_us))
    stacks;
  { gossip_period_ms = period_ms;
    peak_node_unstable_bytes = !peak;
    control_messages = !control;
    mean_delivery_delay_us = Stats.Summary.mean delay }

let gossip_period () =
  let points =
    List.map
      (fun period_ms -> gossip_measure ~seed:61L ~group_size:16 ~period_ms)
      [ 5; 20; 100; 500 ]
  in
  let rows =
    List.map
      (fun p ->
        [ Table.cell_int p.gossip_period_ms;
          Table.cell_int p.peak_node_unstable_bytes;
          Table.cell_int p.control_messages;
          Table.cell_us_as_ms p.mean_delivery_delay_us ])
      points
  in
  Table.make ~id:"gossip-ablation"
    ~title:"stability gossip period: buffering vs control traffic"
    ~paper_ref:"Section 5 (stabilising messages / piggyback trade-off)"
    ~columns:
      [ "gossip period (ms)"; "node peak unstable bytes"; "control msgs";
        "mean delivery delay" ]
    ~notes:
      [ "16-member causal group, 10ms per-member send period";
        "under steady traffic, piggybacked vector timestamps bound the buffers; \
gossip cost falls with the period and matters for quiet members and tails" ]
    rows

type piggyback_point = {
  variant : string;
  drop : float;
  mean_queue_wait_us : float;
  delivered : int;
  expected : int;
  overhead_bytes_per_msg : float;
}

let piggyback_measure ~seed ~piggyback ~drop =
  let group_size = 6 in
  let net =
    Net.create ~latency:(Net.Uniform (500, 20_000)) ~drop_probability:drop ()
  in
  let engine = Engine.create ~seed ~net () in
  let config =
    { Config.default with
      Config.ordering = Config.Causal; piggyback_history = piggyback }
  in
  let stacks =
    Stack.create_group ~engine ~config
      ~names:(List.init group_size (fun i -> Printf.sprintf "p%d" i)) ()
  in
  let sends = ref 0 in
  Array.iteri
    (fun i stack ->
      let cancel =
        Engine.every engine ~owner:(Stack.self stack)
          ~start:(Sim_time.us (1_000 + (i * 229)))
          ~period:(Sim_time.ms 10)
          (fun () -> incr sends; Stack.multicast stack i)
      in
      Engine.at engine (Sim_time.ms 500) cancel)
    stacks;
  Engine.run ~until:(Sim_time.seconds 1) engine;
  let wait = Stats.Summary.create () in
  let delivered = ref 0 and overhead = ref 0 and multicasts = ref 0 in
  Array.iter
    (fun stack ->
      let m = Stack.metrics stack in
      delivered := !delivered + m.Metrics.delivered;
      overhead := !overhead + m.Metrics.header_bytes;
      multicasts := !multicasts + m.Metrics.multicasts_sent;
      if Stats.Summary.count m.Metrics.delivery_delay_us > 0 then
        Stats.Summary.add wait (Stats.Summary.mean m.Metrics.delivery_delay_us))
    stacks;
  { variant = (if piggyback then "causal + history piggyback" else "causal (delay)");
    drop;
    mean_queue_wait_us = Stats.Summary.mean wait;
    delivered = !delivered;
    expected = !sends * group_size;
    overhead_bytes_per_msg =
      float_of_int !overhead
      /. float_of_int (max 1 (!multicasts * (group_size - 1))) }

let piggyback_sweep () =
  let seed = 101L in
  List.concat_map
    (fun drop ->
      [ piggyback_measure ~seed ~piggyback:false ~drop;
        piggyback_measure ~seed ~piggyback:true ~drop ])
    [ 0.0; 0.05 ]

let piggyback () =
  let points = piggyback_sweep () in
  let rows =
    List.map
      (fun p ->
        [ p.variant;
          Table.cell_pct p.drop;
          Table.cell_us_as_ms p.mean_queue_wait_us;
          Printf.sprintf "%d/%d" p.delivered p.expected;
          Table.cell_float ~decimals:1 p.overhead_bytes_per_msg ])
      points
  in
  Table.make ~id:"piggyback-ablation"
    ~title:"delaying dependants vs appending causal history to messages"
    ~paper_ref:"Section 3.4 footnote 4"
    ~columns:
      [ "variant"; "loss"; "mean queue wait"; "delivered/expected";
        "overhead B/msg" ]
    ~notes:
      [ "piggyback: each message carries the sender's unstable predecessors";
        "it shrinks gap waits and even masks loss (bare transport), at a large wire cost -";
        "\"this technique can significantly increase network traffic\"" ]
    rows

type distribution_point = {
  distribution : string;
  app : string;
  catocs_anomaly_rate : float;
  statelevel_anomaly_rate : float;
}

let distributions =
  [ ("uniform 0.5-12ms", Net.Uniform (500, 12_000));
    ("exponential mean 4ms", Net.Exponential { mean_us = 4_000.0; floor = 500 });
    ("fixed 3ms", Net.Fixed 3_000) ]

let latency_sweep () =
  let seed = 71L in
  let rate n total = float_of_int n /. float_of_int (max 1 total) in
  List.concat_map
    (fun (name, latency) ->
      let shop =
        Shop_floor.run { Shop_floor.default_config with Shop_floor.seed; latency }
      in
      let fire =
        Fire_alarm.run { Fire_alarm.default_config with Fire_alarm.seed; latency }
      in
      let trading =
        Trading.run { Trading.default_config with Trading.seed; latency }
      in
      [ { distribution = name; app = "shop-floor (fig2)";
          catocs_anomaly_rate = rate shop.Shop_floor.naive_anomalies shop.Shop_floor.trials;
          statelevel_anomaly_rate =
            rate shop.Shop_floor.versioned_anomalies shop.Shop_floor.trials };
        { distribution = name; app = "fire-alarm (fig3)";
          catocs_anomaly_rate = rate fire.Fire_alarm.naive_anomalies fire.Fire_alarm.trials;
          statelevel_anomaly_rate =
            rate fire.Fire_alarm.timestamped_anomalies fire.Fire_alarm.trials };
        { distribution = name; app = "trading (fig4)";
          catocs_anomaly_rate =
            rate trading.Trading.naive_false_crossings trading.Trading.ticks;
          statelevel_anomaly_rate =
            rate trading.Trading.dep_cache_false_crossings trading.Trading.ticks } ])
    distributions

let latency_distribution () =
  let points = latency_sweep () in
  let rows =
    List.map
      (fun p ->
        [ p.app; p.distribution;
          Table.cell_pct p.catocs_anomaly_rate;
          Table.cell_pct p.statelevel_anomaly_rate ])
      points
  in
  Table.make ~id:"distribution-ablation"
    ~title:"anomaly rates across latency distributions"
    ~paper_ref:"DESIGN.md ablation; Figures 2-4"
    ~columns:[ "scenario"; "latency law"; "CATOCS anomalies"; "state-level" ]
    ~notes:
      [ "rates shift with the network model; the state-level column is zero under every law";
        "fixed latency removes reordering between equal-length paths, so some rates can reach 0 there" ]
    rows
