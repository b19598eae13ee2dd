module Config = Repro_catocs.Config
module Stack = Repro_catocs.Stack
module Metrics = Repro_catocs.Metrics
module Endpoint = Repro_catocs.Endpoint
module Kv_store = Repro_txn.Kv_store
module Recorder = Repro_analyze.Exec.Recorder

let seed = 1L
let servers = 3
let writes = 200
let write_interval = Sim_time.ms 5
let latency = Net.Uniform (500, 5_000)

type config = {
  write_safety : int;
  crash : (int * Sim_time.t) option;
  out_of_band_writes : int;
}

let default_config = { write_safety = 1; crash = None; out_of_band_writes = 0 }

type msg =
  | Client_write of { req : int; key : string; value : int }
  | Update of {
      req : int;
      key : string;
      value : int;
      origin : Engine.pid;
      mark : int;  (* recorder uid of the multicast; 0 when not recording *)
    }
  | Update_ack of { req : int }
  | Client_done of { req : int }

type result = {
  writes_attempted : int;
  writes_acked : int;
  ack_latency_mean_us : float;
  ack_latency_p99_us : float;
  messages_per_write : float;
  acked_lost_at_survivor : int;
  replicas_consistent : bool;
  view_changes : int;
}

type pending_write = {
  client : Engine.pid;
  mutable acks : int;
  mutable replied : bool;
}

let run ?recorder config =
  let net = Net.create ~latency () in
  let engine = Engine.create ~seed ~net () in
  (* Writes of one key are ordered by the client's program (and its failover
     retries), not by anything the group transport can see: channel-edge
     each consecutive same-key Update multicast for the sanitizer. *)
  let last_update : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let record_update ~sender ~key =
    match recorder with
    | None -> 0
    | Some r ->
      let uid = Recorder.note_send r ~sender ~at:(Engine.now engine) () in
      (match Hashtbl.find_opt last_update key with
       | Some prev ->
         Recorder.note_order_requirement r ~before:prev ~after:uid
           ~via:(Printf.sprintf "client write order (%s)" key)
       | None -> ());
      Hashtbl.replace last_update key uid;
      uid
  in
  let record_delivery ~pid ~mark =
    match recorder with
    | None -> ()
    | Some r -> Recorder.note_delivery r ~pid ~uid:mark ~at:(Engine.now engine)
  in
  let group_config = { Config.default with Config.ordering = Config.Causal } in
  let stacks =
    Stack.create_group ~engine ~config:group_config
      ~names:(List.init servers (fun i -> Printf.sprintf "srv%d" i)) ()
  in
  (match recorder with
   | Some r ->
     Array.iteri
       (fun i st ->
         Recorder.add_process r ~pid:(Stack.self st)
           ~name:(Printf.sprintf "srv%d" i))
       stacks
   | None -> ());
  let stores = Array.init servers (fun _ -> Kv_store.create ()) in
  let pending : (int, pending_write) Hashtbl.t = Hashtbl.create 64 in
  let send_times : (int, Sim_time.t) Hashtbl.t = Hashtbl.create 64 in
  let acked : (int, string * int) Hashtbl.t = Hashtbl.create 64 in
  let latency = Stats.Summary.create () and latencies = ref [] in
  let maybe_reply stack p req =
    if (not p.replied) && p.acks >= config.write_safety then begin
      p.replied <- true;
      (match Hashtbl.find_opt send_times req with
       | Some t0 ->
         let us = float_of_int (Sim_time.sub (Engine.now engine) t0) in
         Stats.Summary.add latency us;
         latencies := us :: !latencies
       | None -> ());
      Stack.send_direct stack ~dst:p.client (Client_done { req })
    end
  in
  Array.iteri
    (fun i stack ->
      Stack.set_callbacks stack
        {
          Stack.deliver =
            (fun ~sender:_ payload ->
              match payload with
              | Update { req; key; value; origin; mark } ->
                record_delivery ~pid:(Stack.self stack) ~mark;
                ignore (Kv_store.put stores.(i) ~key value);
                if origin <> Stack.self stack then
                  Stack.send_direct stack ~dst:origin (Update_ack { req })
              | Client_write _ | Update_ack _ | Client_done _ -> ());
          view_change = (fun _ -> ());
          member_failed = (fun _ -> ());
          direct =
            (fun ~src payload ->
              match payload with
              | Client_write { req; key; value } ->
                Hashtbl.replace pending req
                  { client = src; acks = 0; replied = false };
                let mark = record_update ~sender:(Stack.self stack) ~key in
                Stack.multicast stack
                  (Update { req; key; value; origin = Stack.self stack; mark });
                (* k = 0 means reply as soon as the multicast is issued *)
                (match Hashtbl.find_opt pending req with
                 | Some p -> maybe_reply stack p req
                 | None -> ())
              | Update_ack { req } ->
                (match Hashtbl.find_opt pending req with
                 | Some p ->
                   p.acks <- p.acks + 1;
                   maybe_reply stack p req
                 | None -> ())
              | Update _ | Client_done _ -> ());
        })
    stacks;
  (* the client: round-robin writes over the servers. Out-of-band re-issues
     (Fig. 1) carry req ids >= writes with their key and routing held
     in the override tables. *)
  let key_override : (int, string) Hashtbl.t = Hashtbl.create 8 in
  let target_override : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let req_key req =
    match Hashtbl.find_opt key_override req with
    | Some key -> key
    | None -> Printf.sprintf "k%d" (req mod 40)
  in
  let client_pid = Engine.spawn engine ~name:"client" (fun _ _ -> ()) in
  let client =
    Endpoint.create ~engine ~self:client_pid ~mode:Config.Bare
      ~on_direct:(fun ~src:_ payload ->
        match payload with
        | Client_done { req } ->
          (match Hashtbl.find_opt send_times req with
           | Some _ -> Hashtbl.replace acked req (req_key req, req)
           | None -> ())
        | Client_write _ | Update _ | Update_ack _ -> ())
      ()
  in
  (match config.crash with
   | Some (i, at) ->
     Engine.at engine at (fun () -> Engine.crash engine (Stack.self stacks.(i)))
   | None -> ());
  (* primary-updater discipline: all writes of a key flow through one
     server (Section 4.4: "CATOCS-based implementations typically enforce a
     primary updater approach"); the client fails over on timeout *)
  let rec issue req ~offset ~attempts =
    if attempts < 2 * servers then begin
      let base_target =
        match Hashtbl.find_opt target_override req with
        | Some t -> t
        | None -> req mod 40 mod servers
      in
      let target = (base_target + offset) mod servers in
      let target =
        if Engine.is_alive engine (Stack.self stacks.(target)) then target
        else (target + 1) mod servers
      in
      Endpoint.send_direct client ~dst:(Stack.self stacks.(target))
        (Client_write { req; key = req_key req; value = req });
      Engine.after engine ~owner:client_pid (Sim_time.ms 600) (fun () ->
          if not (Hashtbl.mem acked req) then
            issue req ~offset:(offset + 1) ~attempts:(attempts + 1))
    end
  in
  for req = 0 to writes - 1 do
    Engine.at engine (Sim_time.add (Sim_time.ms 5) (req * write_interval))
      (fun () ->
        Hashtbl.replace send_times req (Engine.now engine);
        issue req ~offset:0 ~attempts:0;
        (* Fig. 1 out-of-band request: the client follows up through the
           next server right away, so the second multicast of the key is
           ordered after the first only by the client's program — a channel
           the transport never sees. *)
        if req < config.out_of_band_writes then begin
          let follow = writes + req in
          Hashtbl.replace key_override follow (req_key req);
          Hashtbl.replace target_override follow
            ((req mod 40 mod servers + 1) mod servers);
          Hashtbl.replace send_times follow (Engine.now engine);
          issue follow ~offset:0 ~attempts:0
        end)
  done;
  let horizon =
    Sim_time.add (writes * write_interval) (Sim_time.seconds 2)
  in
  Engine.run ~until:horizon engine;
  (* survivors *)
  let survivors =
    Array.to_list (Array.mapi (fun i s -> (i, s)) stacks)
    |> List.filter (fun (_, s) -> Engine.is_alive engine (Stack.self s))
  in
  (* an acked write is lost if a surviving replica's final value for its key
     is older than the newest acked write of that key (overwrites by newer
     acked writes are fine) *)
  let newest_acked : (string, int) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _req (key, value) ->
      match Hashtbl.find_opt newest_acked key with
      | Some v when v >= value -> ()
      | Some _ | None -> Hashtbl.replace newest_acked key value)
    acked;
  let acked_lost = ref 0 in
  Hashtbl.iter
    (fun key value ->
      let missing_somewhere =
        List.exists
          (fun (i, _) ->
            match Kv_store.get stores.(i) ~key with
            | Some v -> v < value
            | None -> true)
          survivors
      in
      if missing_somewhere then incr acked_lost)
    newest_acked;
  let consistent =
    match survivors with
    | [] -> true
    | (first, _) :: rest ->
      List.for_all
        (fun (i, _) -> Kv_store.equal_content stores.(first) stores.(i))
        rest
  in
  let total_msgs = Engine.messages_sent engine in
  let view_changes =
    Array.fold_left
      (fun acc s -> max acc (Stack.metrics s).Metrics.view_changes)
      0 stacks
  in
  { writes_attempted = writes;
    writes_acked = Hashtbl.length acked;
    ack_latency_mean_us =
      (if Stats.Summary.count latency = 0 then 0.0 else Stats.Summary.mean latency);
    ack_latency_p99_us =
      (if Stats.Summary.count latency = 0 then 0.0
       else Stats.percentile (Array.of_list !latencies) 0.99);
    messages_per_write = float_of_int total_msgs /. float_of_int writes;
    acked_lost_at_survivor = !acked_lost;
    replicas_consistent = consistent;
    view_changes }
