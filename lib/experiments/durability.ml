module Config = Repro_catocs.Config
module Stack = Repro_catocs.Stack
module Tpc = Repro_txn.Two_phase_commit

type point = {
  scheme : string;
  k : int;
  trials : int;
  survivors_have_update : int;
  sender_diverged : int;
  survivor_partial : int;
}

let catocs_trial ~seed ~group_size ~k =
  let net = Net.create ~latency:(Net.Uniform (500, 3_000)) () in
  let engine = Engine.create ~seed ~net () in
  let config = { Config.default with Config.ordering = Config.Causal } in
  let stacks =
    Stack.create_group ~engine ~config
      ~names:(List.init group_size (fun i -> Printf.sprintf "p%d" i)) ()
  in
  let delivered = Array.make group_size false in
  Array.iteri
    (fun i stack ->
      Stack.set_callbacks stack
        { Stack.null_callbacks with
          Stack.deliver = (fun ~sender:_ _ -> delivered.(i) <- true) })
    stacks;
  let sender = stacks.(0) in
  let recipients =
    Array.to_list (Array.sub stacks 1 k) |> List.map Stack.self
  in
  Engine.at engine (Sim_time.ms 1) (fun () ->
      Stack.inject_partial_multicast sender 1 ~recipients);
  Engine.at engine (Sim_time.ms 2) (fun () ->
      Engine.crash engine (Stack.self sender));
  Engine.run ~until:(Sim_time.seconds 1) engine;
  let survivor_count = group_size - 1 in
  let survivors_with =
    Array.to_list delivered |> List.tl |> List.filter Fun.id |> List.length
  in
  let all = survivors_with = survivor_count in
  let none = survivors_with = 0 in
  (* the sender always applied locally (that is the Section 2 anomaly) *)
  (all, delivered.(0) && none, (not all) && not none)

let tpc_trial ~seed ~group_size =
  let net = Net.create ~latency:(Net.Uniform (500, 3_000)) () in
  let engine = Engine.create ~seed ~net () in
  let applied = Array.make group_size false in
  let pids =
    Array.init group_size (fun i ->
        Engine.spawn engine ~name:(Printf.sprintf "n%d" i) (fun _ _ -> ()))
  in
  let nodes =
    Array.init group_size (fun i ->
        Tpc.create_node ~engine ~self:pids.(i) ~inject:Fun.id
          ~can_apply:(fun ~tx:_ _ -> true)
          ~apply:(fun ~tx:_ _ -> applied.(i) <- true)
          ())
  in
  Array.iteri
    (fun i pid ->
      Engine.set_handler engine pid (fun _ env ->
          Tpc.handle nodes.(i) env.Engine.payload))
    pids;
  Engine.at engine (Sim_time.ms 1) (fun () ->
      ignore
        (Tpc.submit nodes.(0)
           ~participants:(Array.to_list (Array.map (fun p -> (p, [ () ])) pids))
           ~on_done:(fun ~tx:_ ~committed:_ -> ()));
      (* the coordinator dies before any vote can reach it *)
      Engine.crash engine pids.(0));
  Engine.run ~until:(Sim_time.seconds 1) engine;
  let survivors_with =
    Array.to_list applied |> List.tl |> List.filter Fun.id |> List.length
  in
  let all = survivors_with = group_size - 1 in
  let none = survivors_with = 0 in
  (all, applied.(0) && none, (not all) && not none)

let accumulate scheme k trials results =
  let survivors_have = ref 0 and diverged = ref 0 and partial = ref 0 in
  List.iter
    (fun (all, div, part) ->
      if all then incr survivors_have;
      if div then incr diverged;
      if part then incr partial)
    results;
  { scheme; k; trials; survivors_have_update = !survivors_have;
    sender_diverged = !diverged; survivor_partial = !partial }

let sweep ?(group_size = 4) ?(trials = 20) ?(seed = 51L) () =
  let catocs_points =
    List.map
      (fun k ->
        let results =
          List.init trials (fun t ->
              catocs_trial
                ~seed:(Int64.add seed (Int64.of_int ((k * 1000) + t)))
                ~group_size ~k)
        in
        accumulate "catocs cbcast" k trials results)
      [ 0; 1; 2; 3 ]
  in
  let tpc_results =
    List.init trials (fun t ->
        tpc_trial ~seed:(Int64.add seed (Int64.of_int (9000 + t))) ~group_size)
  in
  catocs_points @ [ accumulate "2pc (coordinator crash)" 0 trials tpc_results ]

let table points =
  let rows =
    List.map
      (fun p ->
        [ p.scheme;
          Table.cell_int p.k;
          Table.cell_int p.trials;
          Table.cell_int p.survivors_have_update;
          Table.cell_int p.sender_diverged;
          Table.cell_int p.survivor_partial ])
      points
  in
  Table.make ~id:"durability-gap"
    ~title:"sender crash mid-multicast: who ends up with the update?"
    ~paper_ref:"Section 2 (atomic but not durable) / Section 4.4 write-safety"
    ~columns:
      [ "scheme"; "k reached"; "trials"; "all survivors have it";
        "sender diverged"; "partial (atomicity broken)" ]
    ~notes:
      [ "k=0 reproduces the paper's special case: apply locally, crash, nobody else sees it";
        "k>=1: the view-change flush re-supplies the update to every survivor";
        "2PC: the un-acknowledged update simply aborts; no state diverges anywhere" ]
    rows

let run () = table (sweep ())
