module Config = Repro_catocs.Config
module Stack = Repro_catocs.Stack
module Endpoint = Repro_catocs.Endpoint
module Versioned = Repro_statelevel.Versioned
module Recorder = Repro_analyze.Exec.Recorder

type config = {
  seed : int64;
  trials : int;
  request_gap : Sim_time.t;
  latency : Net.latency;
  causal_impl : Config.causal_impl;
}

let default_config =
  { seed = 1L; trials = 200; request_gap = Sim_time.ms 8;
    latency = Net.Uniform (500, 12_000); causal_impl = Config.Vector_causal }

type result = {
  trials : int;
  naive_anomalies : int;
  versioned_anomalies : int;
  stale_rejected : int;
  messages_sent : int;
}

type msg =
  | Request of { lot : string; action : string }
  | Db_update of { lot : string; action : string; reply_to : Engine.pid }
  | Db_reply of { lot : string; action : string; version : int }
  | Notify of { lot : string; action : string; version : int }

let run ?obs ?recorder config =
  let net = Net.create ~latency:config.latency () in
  let engine = Engine.create ~seed:config.seed ~net () in
  (* Instrumentation for the causal sanitizer: each Notify multicast gets a
     recorder uid keyed by (lot, version), and consecutive versions of the
     same lot get a channel edge — that ordering flows through the shared
     database, not through the group. *)
  let notify_uids : (string * int, int) Hashtbl.t = Hashtbl.create 64 in
  let last_notify : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let record_notify ~sender ~lot ~action ~version =
    match recorder with
    | None -> ()
    | Some r ->
      let uid =
        Recorder.note_send r
          ~label:(Printf.sprintf "notify %s %s v%d" action lot version)
          ~sender ~at:(Engine.now engine) ()
      in
      Hashtbl.replace notify_uids (lot, version) uid;
      (match Hashtbl.find_opt last_notify lot with
       | Some prev ->
         Recorder.note_order_requirement r ~before:prev ~after:uid
           ~via:(Printf.sprintf "shared database (%s)" lot)
       | None -> ());
      Hashtbl.replace last_notify lot uid
  in
  let record_delivery ~pid ~lot ~version =
    match recorder with
    | None -> ()
    | Some r ->
      (match Hashtbl.find_opt notify_uids (lot, version) with
       | Some uid -> Recorder.note_delivery r ~pid ~uid ~at:(Engine.now engine)
       | None -> ())
  in
  (* the group: two SFC instances plus the observing client workstation *)
  let group_config =
    Config.with_causal_impl config.causal_impl
      { Config.default with Config.ordering = Config.Causal }
  in
  let stacks =
    Stack.create_group ?obs ~engine ~config:group_config
      ~names:[ "sfc1"; "sfc2"; "observer" ] ()
  in
  let sfc1, sfc2, observer =
    match stacks with
    | [| a; b; c |] -> (a, b, c)
    | _ -> invalid_arg "Shop_floor: expected exactly three group members"
  in
  (* the shared database: the hidden channel *)
  let db_store : string Versioned.store = Versioned.create_store () in
  let db_pid = Engine.spawn engine ~name:"database" (fun _ _ -> ()) in
  let db_endpoint = ref None in
  let db =
    Endpoint.create ~engine ~self:db_pid ~mode:Config.Bare
      ~on_direct:(fun ~src:_ payload ->
        match payload with
        | Db_update { lot; action; reply_to } ->
          let version = Versioned.put db_store ~key:lot action in
          (match recorder with
           | Some r ->
             Recorder.note_external r ~pid:db_pid ~at:(Engine.now engine)
               ~label:(Printf.sprintf "db put %s=%s v%d" lot action version)
           | None -> ());
          (match !db_endpoint with
           | Some e ->
             Endpoint.send_direct e ~dst:reply_to (Db_reply { lot; action; version })
           | None -> ())
        | Request _ | Db_reply _ | Notify _ -> ())
      ()
  in
  db_endpoint := Some db;
  (match recorder with
   | Some r ->
     List.iter
       (fun (st, name) -> Recorder.add_process r ~pid:(Stack.self st) ~name)
       [ (sfc1, "sfc1"); (sfc2, "sfc2"); (observer, "observer") ];
     Recorder.add_process r ~pid:db_pid ~name:"database"
   | None -> ());
  (* SFC behaviour: a request updates the database; the database reply
     triggers the multicast notification *)
  let wire_sfc stack =
    Stack.set_callbacks stack
      { Stack.null_callbacks with
        Stack.deliver =
          (fun ~sender:_ payload ->
            match payload with
            | Notify { lot; version; _ } ->
              record_delivery ~pid:(Stack.self stack) ~lot ~version
            | Request _ | Db_update _ | Db_reply _ -> ());
        Stack.direct =
          (fun ~src:_ payload ->
            match payload with
            | Request { lot; action } ->
              Stack.send_direct stack ~dst:db_pid
                (Db_update { lot; action; reply_to = Stack.self stack })
            | Db_reply { lot; action; version } ->
              record_notify ~sender:(Stack.self stack) ~lot ~action ~version;
              Stack.multicast stack (Notify { lot; action; version })
            | Db_update _ | Notify _ -> ()) }
  in
  wire_sfc sfc1;
  wire_sfc sfc2;
  (* the observer keeps both views of the world *)
  let naive : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let replica : string Versioned.replica = Versioned.create_replica () in
  Stack.set_callbacks observer
    { Stack.null_callbacks with
      Stack.deliver =
        (fun ~sender:_ payload ->
          match payload with
          | Notify { lot; action; version } ->
            record_delivery ~pid:(Stack.self observer) ~lot ~version;
            Hashtbl.replace naive lot action;
            ignore (Versioned.apply replica ~key:lot action ~version)
          | Request _ | Db_update _ | Db_reply _ -> ()) }
  (* a client workstation issuing the request pairs *);
  let client_pid = Engine.spawn engine ~name:"client" (fun _ _ -> ()) in
  let client =
    Endpoint.create ~engine ~self:client_pid ~mode:Config.Bare ()
  in
  let trial_spacing = Sim_time.ms 60 in
  for i = 0 to config.trials - 1 do
    let lot = Printf.sprintf "lot%04d" i in
    let base = Sim_time.add (Sim_time.ms 5) (Sim_time.us (i * trial_spacing)) in
    Engine.at engine base (fun () ->
        Endpoint.send_direct client ~dst:(Stack.self sfc1)
          (Request { lot; action = "start" }));
    Engine.at engine (Sim_time.add base config.request_gap) (fun () ->
        Endpoint.send_direct client ~dst:(Stack.self sfc2)
          (Request { lot; action = "stop" }))
  done;
  let horizon =
    Sim_time.add (Sim_time.us (config.trials * trial_spacing)) (Sim_time.seconds 1)
  in
  Engine.run ~until:horizon engine;
  (* score both observer views against the database's final state *)
  let naive_anomalies = ref 0 and versioned_anomalies = ref 0 in
  List.iter
    (fun lot ->
      match Versioned.get db_store ~key:lot with
      | None -> ()
      | Some truth ->
        (match Hashtbl.find_opt naive lot with
         | Some seen when seen = truth.Versioned.value -> ()
         | Some _ | None -> incr naive_anomalies);
        (match Versioned.read replica ~key:lot with
         | Some seen when seen.Versioned.value = truth.Versioned.value -> ()
         | Some _ | None -> incr versioned_anomalies))
    (Versioned.keys db_store);
  { trials = config.trials; naive_anomalies = !naive_anomalies;
    versioned_anomalies = !versioned_anomalies;
    stale_rejected = Versioned.stale_rejected replica;
    messages_sent = Engine.messages_sent engine }
