module Config = Repro_catocs.Config
module Stack = Repro_catocs.Stack
module Wait_for_graph = Repro_txn.Wait_for_graph

type mode = Van_renesse | Periodic_waitfor

let seed = 1L
let workers = 6

(** background RPCs per second *)
let rpc_rate_per_worker = 50.0

let rpc_service_time = Sim_time.ms 4
let run_for = Sim_time.seconds 2

(** when the injected call cycle forms *)
let deadlock_at = Sim_time.seconds 1

(** workers in the injected cycle *)
let deadlock_size = 3

(** periodic mode only *)
let report_period = Sim_time.ms 100

let latency = Net.Uniform (500, 3_000)

type result = {
  mode : mode;
  background_rpcs : int;
  deadlock_detected : bool;
  detection_latency_ms : float;
  false_alarms : int;
  messages_total : int;
  messages_per_rpc : float;
}

let mode_name = function
  | Van_renesse -> "van-renesse-causal"
  | Periodic_waitfor -> "periodic-waitfor"

(* wait-for nodes are RPC instances: worker id * 1e6 + instance counter *)
let instance_node ~worker ~inst = (worker * 1_000_000) + inst

type event =
  | Evt_call of { caller : int; callee : int }  (* instance nodes *)
  | Evt_return of { caller : int; callee : int }

type report = { from_worker : int; edges : (int * int) list }

type wire =
  | Event of event  (* van Renesse: multicast *)
  | Report of report  (* periodic: point-to-point *)

(* Background workload: each worker issues RPCs at exponential intervals;
   the callee serves for [rpc_service_time] and returns. The injected
   deadlock is a ring of calls at [deadlock_at] that never return. Both
   modes run the exact same workload (same RNG stream). *)
type workload_op = {
  at : Sim_time.t;
  op_caller : int;  (* worker index *)
  op_callee : int;
  caller_inst : int;
  callee_inst : int;
  returns : bool;
}

let generate_workload () =
  let rng = Rng.create seed in
  let inst_counter = ref 0 in
  let fresh () = incr inst_counter; !inst_counter in
  let ops = ref [] in
  let count = ref 0 in
  for w = 0 to workers - 1 do
    let t = ref (Sim_time.ms 5) in
    let continue = ref true in
    while !continue do
      let gap =
        Sim_time.of_float_us (Rng.exponential rng (1e6 /. rpc_rate_per_worker))
      in
      t := Sim_time.add !t gap;
      if Sim_time.compare !t run_for >= 0 then continue := false
      else begin
        let callee = (w + 1 + Rng.int rng (workers - 1)) mod workers in
        incr count;
        ops :=
          { at = !t; op_caller = w; op_callee = callee; caller_inst = fresh ();
            callee_inst = fresh (); returns = true }
          :: !ops
      end
    done
  done;
  (* the injected ring: nested calls, so one RPC instance per worker forms
     the cycle (worker i's serving instance calls worker i+1) *)
  let ring_inst = Array.init deadlock_size (fun _ -> fresh ()) in
  for i = 0 to deadlock_size - 1 do
    let next = (i + 1) mod deadlock_size in
    ops :=
      { at = deadlock_at; op_caller = i; op_callee = next;
        caller_inst = ring_inst.(i); callee_inst = ring_inst.(next);
        returns = false }
      :: !ops
  done;
  (List.rev !ops, !count)

type detector = {
  mutable detected_at : Sim_time.t option;
  mutable false_alarms : int;
}

let check_detection detector graph ~now =
  match Wait_for_graph.find_cycle graph with
  | None -> ()
  | Some _ ->
    if Sim_time.compare now deadlock_at >= 0 then begin
      if detector.detected_at = None then detector.detected_at <- Some now
    end
    else detector.false_alarms <- detector.false_alarms + 1

let finish mode ~background_rpcs ~detector ~messages_total =
  { mode;
    background_rpcs;
    deadlock_detected = detector.detected_at <> None;
    detection_latency_ms =
      (match detector.detected_at with
       | Some t -> Sim_time.to_ms_float (Sim_time.sub t deadlock_at)
       | None -> nan);
    false_alarms = detector.false_alarms;
    messages_total;
    messages_per_rpc =
      float_of_int messages_total /. float_of_int (max 1 background_rpcs) }

let run_van_renesse ops background_rpcs =
  let net = Net.create ~latency () in
  let engine = Engine.create ~seed ~net () in
  (* group: all workers plus the monitor, causal multicast *)
  let names =
    List.init workers (fun i -> Printf.sprintf "worker%d" i)
    @ [ "monitor" ]
  in
  let stacks =
    Stack.create_group ~engine
      ~config:{ Config.default with Config.ordering = Config.Causal }
      ~names ()
  in
  let monitor = stacks.(workers) in
  let graph = Wait_for_graph.create () in
  let detector = { detected_at = None; false_alarms = 0 } in
  Stack.set_callbacks monitor
    { Stack.null_callbacks with
      Stack.deliver =
        (fun ~sender:_ msg ->
          match msg with
          | Event (Evt_call { caller; callee }) ->
            Wait_for_graph.add_edge graph ~waiter:caller ~holder:callee;
            check_detection detector graph ~now:(Engine.now engine)
          | Event (Evt_return { caller; callee }) ->
            Wait_for_graph.remove_edge graph ~waiter:caller ~holder:callee
          | Report _ -> ()) };
  let schedule_op op =
    let caller_node = instance_node ~worker:op.op_caller ~inst:op.caller_inst in
    let callee_node = instance_node ~worker:op.op_callee ~inst:op.callee_inst in
    Engine.at engine op.at (fun () ->
        Stack.multicast stacks.(op.op_caller)
          (Event (Evt_call { caller = caller_node; callee = callee_node })));
    if op.returns then
      Engine.at engine (Sim_time.add op.at rpc_service_time) (fun () ->
          Stack.multicast stacks.(op.op_callee)
            (Event (Evt_return { caller = caller_node; callee = callee_node })))
  in
  List.iter schedule_op ops;
  Engine.run ~until:(Sim_time.add run_for (Sim_time.seconds 1)) engine;
  finish Van_renesse ~background_rpcs ~detector
    ~messages_total:(Engine.messages_sent engine)

let run_periodic ops background_rpcs =
  let net = Net.create ~latency () in
  let engine = Engine.create ~seed ~net () in
  let worker_pids =
    Array.init workers (fun i ->
        Engine.spawn engine ~name:(Printf.sprintf "worker%d" i) (fun _ _ -> ()))
  in
  let monitor_pid = Engine.spawn engine ~name:"monitor" (fun _ _ -> ()) in
  (* worker-local augmented wait-for edges *)
  let local_edges = Array.make workers [] in
  let schedule_op op =
    let caller_node = instance_node ~worker:op.op_caller ~inst:op.caller_inst in
    let callee_node = instance_node ~worker:op.op_callee ~inst:op.callee_inst in
    Engine.at engine op.at (fun () ->
        local_edges.(op.op_caller) <-
          (caller_node, callee_node) :: local_edges.(op.op_caller));
    if op.returns then
      Engine.at engine (Sim_time.add op.at rpc_service_time) (fun () ->
          local_edges.(op.op_caller) <-
            List.filter
              (fun e -> e <> (caller_node, callee_node))
              local_edges.(op.op_caller))
  in
  List.iter schedule_op ops;
  (* monitor: latest report per worker, merged on arrival *)
  let contributions = Array.make workers [] in
  let detector = { detected_at = None; false_alarms = 0 } in
  Engine.set_handler engine monitor_pid (fun _ env ->
      match env.Engine.payload with
      | Report { from_worker; edges } ->
        contributions.(from_worker) <- edges;
        let graph = Wait_for_graph.create () in
        Array.iter
          (List.iter (fun (w, h) -> Wait_for_graph.add_edge graph ~waiter:w ~holder:h))
          contributions;
        check_detection detector graph ~now:(Engine.now engine)
      | Event _ -> ());
  Array.iteri
    (fun w pid ->
      let cancel =
        Engine.every engine ~owner:pid ~period:report_period (fun () ->
            Engine.send engine ~src:pid ~dst:monitor_pid
              (Report { from_worker = w; edges = local_edges.(w) }))
      in
      Engine.at engine (Sim_time.add run_for (Sim_time.ms 500)) cancel)
    worker_pids;
  Engine.run ~until:(Sim_time.add run_for (Sim_time.seconds 1)) engine;
  finish Periodic_waitfor ~background_rpcs ~detector
    ~messages_total:(Engine.messages_sent engine)

let run mode =
  let ops, background_rpcs = generate_workload () in
  match mode with
  | Van_renesse -> run_van_renesse ops background_rpcs
  | Periodic_waitfor -> run_periodic ops background_rpcs
