module Config = Repro_catocs.Config
module Stack = Repro_catocs.Stack
module Endpoint = Repro_catocs.Endpoint
module History = Repro_txn.History

type read_mode = Read_any | Read_primary

let replicas = 3
let clients = 3
let ops_per_client = 20
let op_interval = Sim_time.ms 3
let write_safety = 1
let latency = Net.Exponential { mean_us = 4_000.0; floor = 300 }

type config = { seed : int64; read_mode : read_mode }

let default_config = { seed = 1L; read_mode = Read_any }

type msg =
  | Write_req of { req : int; key : string; value : int }
  | Write_done of { req : int }
  | Read_req of { req : int; key : string }
  | Read_result of { req : int; value : int option }
  | Update of { req : int; key : string; value : int; origin : Engine.pid }
  | Update_ack of { req : int }

type result = {
  read_mode : read_mode;
  operations : int;
  linearizable : bool;
  violation : string option;
  stale_reads : int;
}

let mode_name = function
  | Read_any -> "read-any"
  | Read_primary -> "read-primary"

type pending_write = { client : Engine.pid; mutable acks : int; mutable sent : bool }

let run (config : config) =
  let net = Net.create ~latency () in
  let engine = Engine.create ~seed:config.seed ~net () in
  let rng = Rng.split (Engine.rng engine) in
  let stacks =
    Stack.create_group ~engine
      ~config:{ Config.default with Config.ordering = Config.Causal }
      ~names:(List.init replicas (fun i -> Printf.sprintf "reg%d" i)) ()
  in
  let stores = Array.init replicas (fun _ -> Hashtbl.create 8) in
  let pending : (int, pending_write) Hashtbl.t = Hashtbl.create 64 in
  let keys = [| "x"; "y" |] in
  let primary_of key = (Hashtbl.hash key) mod replicas in
  Array.iteri
    (fun i stack ->
      Stack.set_callbacks stack
        {
          Stack.deliver =
            (fun ~sender:_ msg ->
              match msg with
              | Update { req; key; value; origin } ->
                Hashtbl.replace stores.(i) key value;
                if origin <> Stack.self stack then
                  Stack.send_direct stack ~dst:origin (Update_ack { req })
              | Write_req _ | Write_done _ | Read_req _ | Read_result _
              | Update_ack _ -> ());
          view_change = (fun _ -> ());
          member_failed = (fun _ -> ());
          direct =
            (fun ~src payload ->
              match payload with
              | Write_req { req; key; value } ->
                Hashtbl.replace pending req
                  { client = src; acks = 0; sent = false };
                Stack.multicast stack
                  (Update { req; key; value; origin = Stack.self stack });
                (match Hashtbl.find_opt pending req with
                 | Some p when p.acks >= write_safety && not p.sent ->
                   p.sent <- true;
                   Stack.send_direct stack ~dst:p.client (Write_done { req })
                 | Some _ | None -> ())
              | Update_ack { req } ->
                (match Hashtbl.find_opt pending req with
                 | Some p ->
                   p.acks <- p.acks + 1;
                   if p.acks >= write_safety && not p.sent then begin
                     p.sent <- true;
                     Stack.send_direct stack ~dst:p.client (Write_done { req })
                   end
                 | None -> ())
              | Read_req { req; key } ->
                Stack.send_direct stack ~dst:src
                  (Read_result { req; value = Hashtbl.find_opt stores.(i) key })
              | Write_done _ | Read_result _ | Update _ -> ());
        })
    stacks;
  (* clients: sequential random reads/writes, recorded in a history *)
  let history = History.create () in
  let next_req = ref 0 in
  let next_value = ref 0 in
  (* ground truth for stale-read counting: per key, the largest value whose
     write completed, and when *)
  let completed_write : (string, int * Sim_time.t) Hashtbl.t = Hashtbl.create 8 in
  let stale_reads = ref 0 in
  let inflight :
      (int, [ `W of string * int * Sim_time.t | `R of string * Sim_time.t ])
      Hashtbl.t =
    Hashtbl.create 64
  in
  let make_client c =
    let pid = Engine.spawn engine ~name:(Printf.sprintf "client%d" c) (fun _ _ -> ()) in
    let endpoint_ref = ref None in
    let remaining = ref ops_per_client in
    let next_op () =
      if !remaining > 0 then begin
        decr remaining;
        Engine.after engine ~owner:pid op_interval (fun () ->
            let endpoint = Option.get !endpoint_ref in
            let key = keys.(Rng.int rng (Array.length keys)) in
            incr next_req;
            let req = !next_req in
            let now = Engine.now engine in
            if Rng.bool rng 0.4 then begin
              incr next_value;
              let value = !next_value in
              Hashtbl.replace inflight req (`W (key, value, now));
              Endpoint.send_direct endpoint
                ~dst:(Stack.self stacks.(primary_of key))
                (Write_req { req; key; value })
            end
            else begin
              let target =
                match config.read_mode with
                | Read_primary -> primary_of key
                | Read_any -> Rng.int rng replicas
              in
              Hashtbl.replace inflight req (`R (key, now));
              Endpoint.send_direct endpoint ~dst:(Stack.self stacks.(target))
                (Read_req { req; key })
            end)
      end
    in
    let on_direct ~src:_ payload =
      let now = Engine.now engine in
      (match payload with
       | Write_done { req } ->
         (match Hashtbl.find_opt inflight req with
          | Some (`W (key, value, t0)) ->
            Hashtbl.remove inflight req;
            History.record history ~client:c
              ~op:(History.Write { key; value })
              ~invoked_at:t0 ~completed_at:now;
            (match Hashtbl.find_opt completed_write key with
             | Some (v, _) when v >= value -> ()
             | Some _ | None -> Hashtbl.replace completed_write key (value, now))
          | Some (`R _) | None -> ())
       | Read_result { req; value } ->
         (match Hashtbl.find_opt inflight req with
          | Some (`R (key, t0)) ->
            Hashtbl.remove inflight req;
            History.record history ~client:c
              ~op:(History.Read { key; result = value })
              ~invoked_at:t0 ~completed_at:now;
            (match Hashtbl.find_opt completed_write key with
             | Some (v, tc) when Sim_time.compare tc t0 < 0 ->
               (* a write of v completed before this read began *)
               let r = Option.value ~default:(-1) value in
               if r < v then incr stale_reads
             | Some _ | None -> ())
          | Some (`W _) | None -> ())
       | Write_req _ | Read_req _ | Update _ | Update_ack _ -> ());
      next_op ()
    in
    let endpoint =
      Endpoint.create ~engine ~self:pid ~mode:Config.Bare ~on_direct ()
    in
    endpoint_ref := Some endpoint;
    Engine.at engine (Sim_time.ms (1 + c)) next_op
  in
  for c = 0 to clients - 1 do
    make_client c
  done;
  Engine.run
    ~until:
      (Sim_time.add
         (ops_per_client * 3 * op_interval * clients)
         (Sim_time.seconds 2))
    engine;
  { read_mode = config.read_mode;
    operations = History.length history;
    linearizable = History.linearizable history;
    violation = History.first_violation history;
    stale_reads = !stale_reads }
