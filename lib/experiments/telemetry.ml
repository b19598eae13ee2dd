module Shop_floor = Repro_apps.Shop_floor
module Fire_alarm = Repro_apps.Fire_alarm
module Trading = Repro_apps.Trading
module Config = Repro_catocs.Config

type scenario = {
  name : string;
  descr : string;
  run :
    unit ->
    Repro_obs.Log.t * (int * string) list * Repro_obs.Registry.snapshot;
      (* snapshot is the merged per-stack protocol-metrics registry; empty
         for scenarios that do not enable [Config.metrics] *)
}

(* Group members are spawned first and in name order by
   [Stack.create_group], so their pids are 0..n-1 deterministically; any
   extra endpoints (database, client) spawn after the group and emit no
   telemetry. *)
let numbered names = List.mapi (fun i n -> (i, n)) names

let fig1 () =
  let log = Repro_obs.Log.create () in
  let outcome = Diagrams.fig1_run ~obs:log ~metrics:true () in
  (log, numbered [ "P"; "Q"; "R" ], outcome.Diagrams.registry_snapshot)

let fig1_pc () =
  let log = Repro_obs.Log.create () in
  let outcome =
    Diagrams.fig1_run ~obs:log ~causal_impl:Repro_catocs.Config.Pc_causal
      ~metrics:true ()
  in
  (log, numbered [ "P"; "Q"; "R" ], outcome.Diagrams.registry_snapshot)

let fig2 () =
  let log = Repro_obs.Log.create () in
  ignore
    (Shop_floor.run ~obs:log
       { Shop_floor.default_config with Shop_floor.trials = 3 });
  (log, numbered [ "sfc1"; "sfc2"; "observer" ], [])

let fig3 () =
  let log = Repro_obs.Log.create () in
  ignore
    (Fire_alarm.run ~obs:log
       { Fire_alarm.default_config with Fire_alarm.trials = 3 });
  (log, numbered [ "furnace-P"; "observer-Q"; "monitor-R" ], [])

let fig4 () =
  let log = Repro_obs.Log.create () in
  ignore
    (Trading.run ~obs:log { Trading.default_config with Trading.ticks = 40 });
  (log, numbered [ "option-pricing"; "theoretic-pricing"; "monitor" ], [])

let scaling64 () =
  let log = Repro_obs.Log.create () in
  ignore
    (Scaling.measure_with_graph ~obs:log ~duration:(Sim_time.ms 200) ~seed:11L
       64);
  (log, numbered (List.init 64 (Printf.sprintf "p%d")), [])

(* The same 64-member run over PC-broadcast: the unstable-bytes gauges in
   this trace carry O(1) per-message metadata instead of 64-entry vectors —
   the visual counterpart of the BENCH_delivery.json metadata curves. *)
let pc_config = Config.with_causal_impl Config.Pc_causal Scaling.config

let scaling_metadata () =
  let log = Repro_obs.Log.create () in
  ignore
    (Scaling.measure_with_graph ~obs:log ~duration:(Sim_time.ms 200)
       ~config:pc_config ~seed:11L 64);
  (log, numbered (List.init 64 (Printf.sprintf "p%d")), [])

(* The scaling run that the n=4096 bench points rely on: [scaling_metadata]
   over the sparse stability tracker. Delivery timing is identical to that
   dense-clock run (the tracker only changes storage), so the trace doubles
   as a visual regression for that equivalence. *)
let scaling_sparse () =
  let log = Repro_obs.Log.create () in
  ignore
    (Scaling.measure_with_graph ~obs:log ~duration:(Sim_time.ms 200)
       ~config:{ pc_config with Config.stability_clock = Config.Sparse_clock }
       ~seed:11L 64);
  (log, numbered (List.init 64 (Printf.sprintf "p%d")), [])

let all =
  [ { name = "fig1";
      descr = "Figure 1 causal-order diagram run (P/Q/R, m1..m4)";
      run = fig1 };
    { name = "fig2-shop-floor";
      descr = "Figure 2 shop-floor hidden-channel run (3 lots)";
      run = fig2 };
    { name = "fig3-fire-alarm";
      descr = "Figure 3 fire-alarm external-channel run (3 trials)";
      run = fig3 };
    { name = "fig4-trading";
      descr = "Figure 4 trading false-crossing run (40 ticks)";
      run = fig4 };
    { name = "fig1-pc";
      descr = "Figure 1 run over the PC-broadcast causal layer";
      run = fig1_pc };
    { name = "scaling-n64";
      descr = "64-member buffering-scaling run with per-node gauge sampling";
      run = scaling64 };
    { name = "scaling-metadata";
      descr =
        "64-member scaling run under PC-broadcast constant metadata \
         (unstable-bytes gauges)";
      run = scaling_metadata };
    { name = "scaling-sparse";
      descr =
        "64-member scaling run, PC-broadcast causal delivery over the sparse \
         stability tracker";
      run = scaling_sparse } ]

let find name = List.find_opt (fun s -> s.name = name) all
