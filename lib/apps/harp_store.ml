module Tpc = Repro_txn.Two_phase_commit
module Kv_store = Repro_txn.Kv_store
module Wal = Repro_txn.Wal

let seed = 1L
let server_count = 3
let writes = 200
let write_interval = Sim_time.ms 5
let latency = Net.Uniform (500, 5_000)
let client_timeout = Sim_time.seconds 1

type op = Put of { key : string; value : int }

type msg =
  | Client_write of { req : int; key : string; value : int }
  | Client_done of { req : int; ok : bool }
  | Tpc_msg of op Tpc.msg

type result = {
  writes_attempted : int;
  writes_acked : int;
  ack_latency_mean_us : float;
  ack_latency_p99_us : float;
  messages_per_write : float;
  commit_aborts : int;
  acked_lost_at_survivor : int;
  replicas_consistent : bool;
}

type server = {
  index : int;
  pid : Engine.pid;
  store : int Kv_store.t;
  wal : int Wal.t;
  locked : (string, Tpc.txid) Hashtbl.t;
      (* exclusive key locks held from prepare to decision: this is what
         serialises concurrent writes identically at every replica *)
  mutable node : (op, msg) Tpc.node option;
}

let run crash =
  let net = Net.create ~latency () in
  let engine = Engine.create ~seed ~net () in
  let servers =
    Array.init server_count (fun index ->
        { index;
          pid = Engine.spawn engine ~name:(Printf.sprintf "harp%d" index) (fun _ _ -> ());
          store = Kv_store.create (); wal = Wal.create ();
          locked = Hashtbl.create 16; node = None })
  in
  let client_pid = Engine.spawn engine ~name:"client" (fun _ _ -> ()) in
  let alive = Array.make server_count true in
  Engine.on_failure engine (fun pid ->
      Array.iter (fun s -> if s.pid = pid then alive.(s.index) <- false) servers);
  let availability_list () =
    Array.to_list servers |> List.filter (fun s -> alive.(s.index))
  in
  let commit_aborts = ref 0 in
  (* per-server 2PC nodes with WAL at prepare (redo record) and commit *)
  Array.iter
    (fun server ->
      let unlock tx ops =
        List.iter
          (fun (Put { key; _ }) ->
            match Hashtbl.find_opt server.locked key with
            | Some holder when holder = tx -> Hashtbl.remove server.locked key
            | Some _ | None -> ())
          ops
      in
      let node =
        Tpc.create_node ~engine ~self:server.pid ~inject:(fun m -> Tpc_msg m)
          ~can_apply:(fun ~tx ops ->
            let conflict =
              List.exists
                (fun (Put { key; _ }) ->
                  match Hashtbl.find_opt server.locked key with
                  | Some holder -> holder <> tx
                  | None -> false)
                ops
            in
            (* state-level refusal (Section 3, limitation 2): a participant
               rejects a write that is staler than its committed state, so a
               delayed client retry cannot roll a key backwards *)
            let stale =
              List.exists
                (fun (Put { key; value }) ->
                  match Kv_store.get server.store ~key with
                  | Some current -> value < current
                  | None -> false)
                ops
            in
            if conflict || stale then false
            else begin
              List.iter
                (fun (Put { key; _ }) -> Hashtbl.replace server.locked key tx)
                ops;
              Wal.append server.wal (Wal.Begin tx);
              List.iter
                (fun (Put { key; value }) ->
                  Wal.append server.wal (Wal.Write { txid = tx; key; value }))
                ops;
              true
            end)
          ~apply:(fun ~tx ops ->
            Wal.append server.wal (Wal.Commit tx);
            List.iter
              (fun (Put { key; value }) ->
                ignore (Kv_store.put server.store ~key value))
              ops;
            unlock tx ops)
          ~on_abort:(fun ~tx ops ->
            Wal.append server.wal (Wal.Abort tx);
            unlock tx ops)
          ()
      in
      server.node <- Some node)
    servers;
  (* a write is a transaction across the availability list; one retry on
     abort (the availability list has been refreshed by then) *)
  let rec coordinate server ~req ~key ~value ~attempts =
    match server.node with
    | None -> ()
    | Some node ->
      let participants =
        List.map (fun s -> (s.pid, [ Put { key; value } ])) (availability_list ())
      in
      ignore
        (Tpc.submit node ~participants ~on_done:(fun ~tx:_ ~committed ->
             if committed then
               Engine.send engine ~src:server.pid ~dst:client_pid
                 (Client_done { req; ok = true })
             else begin
               incr commit_aborts;
               if attempts < 6 then begin
                 (* jittered backoff: deterministic equal backoffs would
                    let two conflicting writers collide in lock-step *)
                 let jitter = Rng.int (Engine.rng engine) 20_000 in
                 Engine.after engine ~owner:server.pid
                   (Sim_time.add (Sim_time.ms 15) jitter)
                   (fun () ->
                     coordinate server ~req ~key ~value ~attempts:(attempts + 1))
               end
               else
                 Engine.send engine ~src:server.pid ~dst:client_pid
                   (Client_done { req; ok = false })
             end))
  in
  Array.iter
    (fun server ->
      (* duplicate client retries for a request already being coordinated
         here would race with themselves on the key lock: ignore them *)
      let inflight : (int, unit) Hashtbl.t = Hashtbl.create 64 in
      Engine.set_handler engine server.pid (fun _ env ->
          match env.Engine.payload with
          | Tpc_msg m ->
            (match server.node with Some node -> Tpc.handle node m | None -> ())
          | Client_write { req; key; value } ->
            if not (Hashtbl.mem inflight req) then begin
              Hashtbl.replace inflight req ();
              coordinate server ~req ~key ~value ~attempts:0
            end
          | Client_done _ -> ()))
    servers;
  (* the client: sends to a server; on timeout, fails over to the next *)
  let send_times : (int, Sim_time.t) Hashtbl.t = Hashtbl.create 64 in
  let acked : (int, string * int) Hashtbl.t = Hashtbl.create 64 in
  let latency = Stats.Summary.create () and latencies = ref [] in
  let key_of req = Printf.sprintf "k%d" (req mod 40) in
  (* primary copy: the client directs writes at the lowest known-alive
     server, failing over on timeout *)
  let rec issue req ~server_index ~attempts =
    if attempts < 2 * server_count then begin
      let target = servers.(server_index mod server_count) in
      let target =
        if alive.(target.index) then target
        else servers.((server_index + 1) mod server_count)
      in
      Engine.send engine ~src:client_pid ~dst:target.pid
        (Client_write { req; key = key_of req; value = req });
      Engine.after engine ~owner:client_pid client_timeout (fun () ->
          let superseded =
            Hashtbl.fold
              (fun _ (key, value) acc -> acc || (key = key_of req && value > req))
              acked false
          in
          if (not (Hashtbl.mem acked req)) && not superseded then
            issue req ~server_index:(server_index + 1) ~attempts:(attempts + 1))
    end
  in
  Engine.set_handler engine client_pid (fun _ env ->
      match env.Engine.payload with
      | Client_done { req; ok } ->
        if ok && not (Hashtbl.mem acked req) then begin
          Hashtbl.replace acked req (key_of req, req);
          match Hashtbl.find_opt send_times req with
          | Some t0 ->
            let us = float_of_int (Sim_time.sub (Engine.now engine) t0) in
            Stats.Summary.add latency us;
            latencies := us :: !latencies
          | None -> ()
        end
      | Client_write _ | Tpc_msg _ -> ());
  (match crash with
   | Some (i, at) ->
     Engine.at engine at (fun () -> Engine.crash engine servers.(i).pid)
   | None -> ());
  for req = 0 to writes - 1 do
    Engine.at engine (Sim_time.add (Sim_time.ms 5) (req * write_interval))
      (fun () ->
        Hashtbl.replace send_times req (Engine.now engine);
        issue req ~server_index:0 ~attempts:0)
  done;
  let horizon =
    Sim_time.add (writes * write_interval) (Sim_time.seconds 3)
  in
  Engine.run ~until:horizon engine;
  (* durability check: replay each survivor's WAL and confirm every acked
     write (or a newer one for its key) is present *)
  let survivors = availability_list () in
  let newest_acked : (string, int) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _req (key, value) ->
      match Hashtbl.find_opt newest_acked key with
      | Some v when v >= value -> ()
      | Some _ | None -> Hashtbl.replace newest_acked key value)
    acked;
  let acked_lost = ref 0 in
  let replayed = List.map (fun s -> Wal.replay s.wal) survivors in
  Hashtbl.iter
    (fun key value ->
      let missing_somewhere =
        List.exists
          (fun store ->
            match Kv_store.get store ~key with
            | Some v -> v < value
            | None -> true)
          replayed
      in
      if missing_somewhere then incr acked_lost)
    newest_acked;
  let consistent =
    match survivors with
    | [] -> true
    | first :: rest ->
      List.for_all (fun s -> Kv_store.equal_content first.store s.store) rest
  in
  { writes_attempted = writes;
    writes_acked = Hashtbl.length acked;
    ack_latency_mean_us =
      (if Stats.Summary.count latency = 0 then 0.0 else Stats.Summary.mean latency);
    ack_latency_p99_us =
      (if Stats.Summary.count latency = 0 then 0.0
       else Stats.percentile (Array.of_list !latencies) 0.99);
    messages_per_write =
      float_of_int (Engine.messages_sent engine) /. float_of_int writes;
    commit_aborts = !commit_aborts;
    acked_lost_at_survivor = !acked_lost;
    replicas_consistent = consistent }
