module Config = Repro_catocs.Config
module Stack = Repro_catocs.Stack
module Rt_clock = Repro_statelevel.Rt_clock
module Recorder = Repro_analyze.Exec.Recorder

type config = {
  seed : int64;
  trials : int;
  event_gap : Sim_time.t;
  latency : Net.latency;
  ordering : Config.ordering;
  causal_impl : Config.causal_impl;
}

let default_config =
  { seed = 1L; trials = 200; event_gap = Sim_time.ms 6;
    latency = Net.Uniform (500, 15_000); ordering = Config.Causal;
    causal_impl = Config.Vector_causal }

let clock_accuracy_us = 1000

(* [mark] is the recorder uid of the multicast (0 when not recording), so
   deliveries can be attributed without a payload lookup table. *)
type report = {
  trial : int;
  burning : bool;
  stamp : Sim_time.t;
  origin : int;
  mark : int;
}

type result = {
  trials : int;
  naive_anomalies : int;
  timestamped_anomalies : int;
}

let run ?obs ?recorder config =
  let net = Net.create ~latency:config.latency () in
  let engine = Engine.create ~seed:config.seed ~net () in
  let clock =
    Rt_clock.create ~accuracy_us:clock_accuracy_us
      (Rng.split (Engine.rng engine))
  in
  let group_config =
    Config.with_causal_impl config.causal_impl
      { Config.default with Config.ordering = config.ordering }
  in
  let stacks =
    Stack.create_group ?obs ~engine ~config:group_config
      ~names:[ "furnace-P"; "observer-Q"; "monitor-R" ] ()
  in
  let furnace, observer, monitor =
    match stacks with
    | [| p; q; r |] -> (p, q, r)
    | _ -> invalid_arg "Fire_alarm: expected exactly three group members"
  in
  (match recorder with
   | Some r ->
     List.iter
       (fun (st, name) -> Recorder.add_process r ~pid:(Stack.self st) ~name)
       [ (furnace, "furnace-P"); (observer, "observer-Q"); (monitor, "monitor-R") ]
   | None -> ());
  let record_delivery ~pid (r : report) =
    match recorder with
    | None -> ()
    | Some rec_ -> Recorder.note_delivery rec_ ~pid ~uid:r.mark ~at:(Engine.now engine)
  in
  (* Q's two views of the world *)
  let naive : (int, bool) Hashtbl.t = Hashtbl.create 64 in
  let stamped : (int, bool Rt_clock.Stamped.v) Hashtbl.t = Hashtbl.create 64 in
  Stack.set_callbacks observer
    { Stack.null_callbacks with
      Stack.deliver =
        (fun ~sender:_ r ->
          record_delivery ~pid:(Stack.self observer) r;
          Hashtbl.replace naive r.trial r.burning;
          let incoming =
            { Rt_clock.Stamped.stamp = r.stamp; origin = r.origin; v = r.burning }
          in
          let merged =
            Rt_clock.Stamped.merge (Hashtbl.find_opt stamped r.trial) incoming
          in
          Hashtbl.replace stamped r.trial merged) };
  (* P and R record their deliveries too (so the analyzer sees any transport
     path that does cover the physical-world ordering), but act on nothing. *)
  List.iter
    (fun st ->
      Stack.set_callbacks st
        { Stack.null_callbacks with
          Stack.deliver = (fun ~sender:_ r -> record_delivery ~pid:(Stack.self st) r) })
    [ furnace; monitor ];
  (* Successive reports of one trial are ordered by the burning fire itself —
     the paper's external channel. Each gets a channel edge. *)
  let last_report : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let report stack trial burning =
    let origin = Stack.self stack in
    let stamp = Rt_clock.read clock ~pid:origin ~now:(Engine.now engine) in
    let mark =
      match recorder with
      | None -> 0
      | Some r ->
        let label =
          Printf.sprintf "%s(t%d)" (if burning then "FIRE" else "fire-out") trial
        in
        let uid =
          Recorder.note_send r ~label ~sender:origin ~at:(Engine.now engine) ()
        in
        (match Hashtbl.find_opt last_report trial with
         | Some prev ->
           Recorder.note_order_requirement r ~before:prev ~after:uid
             ~via:(Printf.sprintf "physical world (fire, trial %d)" trial)
         | None -> ());
        Hashtbl.replace last_report trial uid;
        uid
    in
    Stack.multicast stack { trial; burning; stamp; origin; mark }
  in
  (* physical script per trial: fire (P), fire goes out (R observes through
     the external world), fire restarts (P) *)
  let trial_spacing = Sim_time.ms 80 in
  for trial = 0 to config.trials - 1 do
    let base = Sim_time.add (Sim_time.ms 5) (trial * trial_spacing) in
    Engine.at engine base (fun () -> report furnace trial true);
    Engine.at engine (Sim_time.add base config.event_gap) (fun () ->
        report monitor trial false);
    Engine.at engine (Sim_time.add base (2 * config.event_gap)) (fun () ->
        report furnace trial true)
  done;
  let horizon =
    Sim_time.add (config.trials * trial_spacing) (Sim_time.seconds 1)
  in
  Engine.run ~until:horizon engine;
  (* ground truth: the fire is burning at the end of every trial *)
  let naive_anomalies = ref 0 and timestamped_anomalies = ref 0 in
  for trial = 0 to config.trials - 1 do
    (match Hashtbl.find_opt naive trial with
     | Some true -> ()
     | Some false | None -> incr naive_anomalies);
    match Hashtbl.find_opt stamped trial with
    | Some { Rt_clock.Stamped.v = true; _ } -> ()
    | Some _ | None -> incr timestamped_anomalies
  done;
  { trials = config.trials; naive_anomalies = !naive_anomalies;
    timestamped_anomalies = !timestamped_anomalies }
