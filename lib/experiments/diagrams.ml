module Config = Repro_catocs.Config
module Stack = Repro_catocs.Stack
module Shop_floor = Repro_apps.Shop_floor
module Fire_alarm = Repro_apps.Fire_alarm
module Exec = Repro_analyze.Exec
module Recorder = Repro_analyze.Exec.Recorder

(* --- Figure 1 ------------------------------------------------------------- *)

type fig1_outcome = {
  exec : Exec.t option;  (* the recorded run; [None] under [Parallel] *)
  deliveries : (int * string list) list;  (* member index, delivery order *)
  registry_snapshot : Repro_obs.Registry.snapshot;
      (* merged over the three stacks; empty unless ~metrics:true *)
}

let fig1_run ?(engine_impl = Engine.Sequential) ?obs
    ?(causal_impl = Config.Vector_causal) ?(metrics = false) () =
  let net = Net.create ~latency:(Net.Uniform (1_000, 3_000)) () in
  (* the recorded execution (a recorder is not domain-safe) and the shared
     causal graph are sequential-only conveniences; the telemetry log (when
     synchronized) carries everything the cross-domain consumers need *)
  let parallel =
    match engine_impl with
    | Engine.Sequential -> false
    | Engine.Parallel _ -> true
  in
  let recorder =
    if parallel then None
    else
      Some
        (Recorder.create ~ordering:Exec.Causal_order ~label:"fig1 causal order"
           ())
  in
  let engine = Engine.create ~impl:engine_impl ~seed:3L ~net () in
  let stacks =
    Stack.create_group ?obs ~engine
      ~config:
        (Config.with_causal_impl causal_impl
           { Config.default with
             Config.ordering = Config.Causal;
             track_graph = not parallel; metrics })
      ~names:[ "P"; "Q"; "R" ] ()
  in
  let p = stacks.(0) and q = stacks.(1) and r = stacks.(2) in
  (match recorder with
   | Some rc ->
     Array.iteri
       (fun i stack ->
         Recorder.add_process rc ~pid:(Stack.self stack)
           ~name:[| "P"; "Q"; "R" |].(i))
       stacks
   | None -> ());
  let uids : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let record_send stack m =
    match recorder with
    | None -> ()
    | Some rc ->
      Hashtbl.replace uids m
        (Recorder.note_send rc ~label:m ~sender:(Stack.self stack)
           ~at:(Engine.now engine) ())
  in
  let multicast stack m =
    record_send stack m;
    Stack.multicast stack m
  in
  let deliveries = Array.make 3 [] in
  Array.iteri
    (fun i stack ->
      Stack.set_callbacks stack
        { Stack.null_callbacks with
          Stack.deliver =
            (fun ~sender:_ m ->
              (match (recorder, Hashtbl.find_opt uids m) with
               | Some rc, Some uid ->
                 Recorder.note_delivery rc ~pid:(Stack.self stack) ~uid
                   ~at:(Engine.now engine)
               | _, _ -> ());
              deliveries.(i) <- m :: deliveries.(i);
              (* P reacts to m1 by sending m2: m1 happens-before m2 *)
              if i = 0 && m = "m1" then multicast p "m2") })
    stacks;
  Engine.at engine (Sim_time.ms 1) (fun () -> multicast q "m1");
  Engine.at engine (Sim_time.ms 8) (fun () -> multicast r "m3");
  Engine.at engine (Sim_time.ms 9) (fun () -> multicast q "m4");
  Engine.run ~until:(Sim_time.ms 18) engine;
  { exec = Option.map Recorder.exec recorder;
    deliveries = List.init 3 (fun i -> (i, List.rev deliveries.(i)));
    registry_snapshot =
      Repro_obs.Registry.merge_all
        (Array.to_list
           (Array.map
              (fun s -> Repro_obs.Registry.snapshot (Stack.registry s))
              stacks)) }

let fig1_exec ?causal_impl () =
  match (fig1_run ?causal_impl ()).exec with
  | Some exec -> exec
  | None -> invalid_arg "Diagrams: a sequential Figure 1 run records itself"

let fig1_causal_order () = Exec.render_diagram (fig1_exec ())

let index_of item list =
  let rec scan i = function
    | [] -> None
    | x :: rest -> if x = item then Some i else scan (i + 1) rest
  in
  scan 0 list

let fig1_table () =
  let outcome = fig1_run () in
  let before a b order =
    match (index_of a order, index_of b order) with
    | Some i, Some j -> i < j
    | _ -> false
  in
  let everywhere f = List.for_all (fun (_, order) -> f order) outcome.deliveries in
  let rows =
    [ [ "m1 delivered before m2 at every process";
        Table.cell_bool true;
        Table.cell_bool (everywhere (before "m1" "m2")) ];
      [ "m1 delivered before m4 at every process";
        Table.cell_bool true;
        Table.cell_bool (everywhere (before "m1" "m4")) ];
      [ "all four messages delivered everywhere";
        Table.cell_bool true;
        Table.cell_bool
          (everywhere (fun order -> List.length order = 4)) ];
      [ "m3/m4 order may differ between processes (concurrent)";
        "allowed";
        (let orders =
           List.map (fun (_, order) -> before "m3" "m4" order) outcome.deliveries
         in
         if List.for_all Fun.id orders || List.for_all not orders then
           "same this run"
         else "differs") ] ]
  in
  Table.make ~id:"fig1-causal-order"
    ~title:"Figure 1 event diagram: causal delivery properties"
    ~paper_ref:"Figure 1 / Section 2"
    ~columns:[ "property"; "expected"; "observed" ]
    rows

(* --- Figures 2 and 3: seed-search for an anomalous run -------------------- *)

(* Figures 2 and 3 each show one run in which the naive observer sees the
   anomaly: run seeds 1, 2, ... and stop at the first anomalous one, or at
   seed 200. Returns the last seed run and its result. *)
let search_seed ~anomalous run =
  let rec search seed =
    let result = run seed in
    if anomalous result || seed >= 200 then (seed, result)
    else search (seed + 1)
  in
  search 1

let shop_floor_anomalous r = r.Shop_floor.naive_anomalies > 0
let fire_alarm_anomalous r = r.Fire_alarm.naive_anomalies > 0

(* One seed search that records every run it tries: the last seed, its
   result and its recorded execution. The diagram and the causal sanitizer
   both read that execution; when no seed is anomalous it is the last
   tried recording (its channel edges are still declared, only the
   observed inversion may be missing). *)
let search_recorded ~label ~anomalous run_seed =
  let seed, (recorder, result) =
    search_seed
      ~anomalous:(fun (_, result) -> anomalous result)
      (fun seed ->
        let recorder =
          Recorder.create ~ordering:Exec.Causal_order
            ~label:(Printf.sprintf "%s seed %d" label seed)
            ()
        in
        (recorder, run_seed ~recorder seed))
  in
  (seed, result, Recorder.exec recorder)

let fig2_search ?(causal_impl = Config.Vector_causal) () =
  search_recorded ~label:"fig2 shop-floor" ~anomalous:shop_floor_anomalous
    (fun ~recorder seed ->
      Shop_floor.run ~recorder
        { Shop_floor.default_config with
          Shop_floor.seed = Int64.of_int seed; trials = 1; causal_impl })

let fig3_search ?(causal_impl = Config.Vector_causal) () =
  search_recorded ~label:"fig3 fire-alarm" ~anomalous:fire_alarm_anomalous
    (fun ~recorder seed ->
      Fire_alarm.run ~recorder
        { Fire_alarm.default_config with
          Fire_alarm.seed = Int64.of_int seed; trials = 1; causal_impl })

let fig2_hidden_channel () =
  let seed, result, exec = fig2_search () in
  if shop_floor_anomalous result then
    Printf.sprintf "(seed %d: observer's last notification contradicts the database)\n%s"
      seed (Exec.render_diagram exec)
  else "no anomalous seed found in range"

let fig3_external_channel () =
  let seed, result, exec = fig3_search () in
  if fire_alarm_anomalous result then
    Printf.sprintf
      "(seed %d: observer Q's last received report is \"fire out\")\n%s" seed
      (Exec.render_diagram exec)
  else "no anomalous seed found in range"

(* --- recorded executions for the causal sanitizer -------------------------- *)

let fig2_exec ?causal_impl () =
  let _, _, exec = fig2_search ?causal_impl () in
  exec

let fig3_exec ?causal_impl () =
  let _, _, exec = fig3_search ?causal_impl () in
  exec
