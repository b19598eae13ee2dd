module Config = Repro_catocs.Config
module Stack = Repro_catocs.Stack

type mode = Catocs_group | Timestamped_freshest

let seed = 1L
let sample_period = Sim_time.ms 10
let run_for = Sim_time.seconds 2

(** controller messages per second *)
let control_traffic_rate = 500.0

let latency = Net.Exponential { mean_us = 4000.0; floor = 500 }

type config = { drop_probability : float; mode : mode }

type msg =
  | Reading of { temp : float; at : Sim_time.t }
  | Control of int

type result = {
  mode : mode;
  readings_sent : int;
  readings_applied : int;
  mean_tracking_error : float;
  max_tracking_error : float;
  mean_staleness_ms : float;
  messages_total : int;
}

let mode_name = function
  | Catocs_group -> "catocs-causal-group"
  | Timestamped_freshest -> "timestamped-freshest"

let true_temperature t =
  200.0 +. (30.0 *. sin (2.0 *. Float.pi *. Sim_time.to_s_float t /. 2.0))

type monitor_view = { mutable stored : (float * Sim_time.t) option }

let make_sampler engine view error_summary staleness_summary ~owner =
  let cancel =
    Engine.every engine ~owner ~start:(Sim_time.ms 50) ~period:(Sim_time.ms 1)
      (fun () ->
        match view.stored with
        | None -> ()
        | Some (temp, at) ->
          let now = Engine.now engine in
          Stats.Summary.add error_summary
            (Float.abs (temp -. true_temperature now));
          Stats.Summary.add staleness_summary
            (Sim_time.to_ms_float (Sim_time.sub now at)))
  in
  Engine.at engine run_for cancel

let finish (config : config) ~readings_sent ~readings_applied ~error ~staleness
    ~messages_total =
  { mode = config.mode; readings_sent; readings_applied;
    mean_tracking_error = Stats.Summary.mean error;
    max_tracking_error = Stats.Summary.max error;
    mean_staleness_ms = Stats.Summary.mean staleness;
    messages_total }

let run_catocs (config : config) =
  let net =
    Net.create ~latency ~drop_probability:config.drop_probability ()
  in
  let engine = Engine.create ~seed ~net () in
  let transport =
    if config.drop_probability > 0.0 then
      Config.Reliable { rto = Sim_time.ms 20; max_retries = 50 }
    else Config.Bare
  in
  let stacks =
    Stack.create_group ~engine
      ~config:{ Config.default with Config.ordering = Config.Causal; transport }
      ~names:[ "sensor"; "controller"; "monitor" ] ()
  in
  let sensor = stacks.(0) and controller = stacks.(1) and monitor = stacks.(2) in
  let view = { stored = None } in
  let readings_sent = ref 0 and readings_applied = ref 0 in
  Stack.set_callbacks monitor
    { Stack.null_callbacks with
      Stack.deliver =
        (fun ~sender:_ payload ->
          match payload with
          | Reading { temp; at } ->
            incr readings_applied;
            view.stored <- Some (temp, at)
          | Control _ -> ()) };
  (* sensor readings *)
  let cancel_sensor =
    Engine.every engine ~owner:(Stack.self sensor) ~period:sample_period
      (fun () ->
        incr readings_sent;
        let now = Engine.now engine in
        Stack.multicast sensor (Reading { temp = true_temperature now; at = now }))
  in
  Engine.at engine run_for cancel_sensor;
  (* chatty control traffic sharing the causal group *)
  let rng = Rng.split (Engine.rng engine) in
  let counter = ref 0 in
  let rec control_tick () =
    let gap =
      Sim_time.of_float_us (Rng.exponential rng (1e6 /. control_traffic_rate))
    in
    Engine.after engine ~owner:(Stack.self controller) gap (fun () ->
        if Sim_time.compare (Engine.now engine) run_for < 0 then begin
          incr counter;
          Stack.multicast controller (Control !counter);
          control_tick ()
        end)
  in
  control_tick ();
  let error = Stats.Summary.create () and staleness = Stats.Summary.create () in
  make_sampler engine view error staleness ~owner:(Stack.self monitor);
  Engine.run ~until:(Sim_time.add run_for (Sim_time.ms 100)) engine;
  finish config ~readings_sent:!readings_sent ~readings_applied:!readings_applied
    ~error ~staleness ~messages_total:(Engine.messages_sent engine)

let run_timestamped (config : config) =
  let net =
    Net.create ~latency ~drop_probability:config.drop_probability ()
  in
  let engine = Engine.create ~seed ~net () in
  let sensor = Engine.spawn engine ~name:"sensor" (fun _ _ -> ()) in
  let view = { stored = None } in
  let readings_sent = ref 0 and readings_applied = ref 0 in
  let monitor =
    Engine.spawn engine ~name:"monitor" (fun _ env ->
        match env.Engine.payload with
        | Reading { temp; at } ->
          (* freshest wins; stale arrivals are dropped, lost ones ignored *)
          (match view.stored with
           | Some (_, current) when Sim_time.compare current at >= 0 -> ()
           | Some _ | None ->
             incr readings_applied;
             view.stored <- Some (temp, at))
        | Control _ -> ())
  in
  let cancel_sensor =
    Engine.every engine ~owner:sensor ~period:sample_period (fun () ->
        incr readings_sent;
        let now = Engine.now engine in
        Engine.send engine ~src:sensor ~dst:monitor
          (Reading { temp = true_temperature now; at = now }))
  in
  Engine.at engine run_for cancel_sensor;
  let error = Stats.Summary.create () and staleness = Stats.Summary.create () in
  make_sampler engine view error staleness ~owner:monitor;
  Engine.run ~until:(Sim_time.add run_for (Sim_time.ms 100)) engine;
  finish config ~readings_sent:!readings_sent ~readings_applied:!readings_applied
    ~error ~staleness ~messages_total:(Engine.messages_sent engine)

let run (config : config) =
  match config.mode with
  | Catocs_group -> run_catocs config
  | Timestamped_freshest -> run_timestamped config
