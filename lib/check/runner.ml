module Config = Repro_catocs.Config
module Stack = Repro_catocs.Stack
module Group = Repro_catocs.Group

(* Payloads are oracle uids: the checker's whole message vocabulary is the
   integers the oracle hands out, so logs need no decoding. *)
type stack = int Stack.t

type report = {
  seed : int;
  config : Config.t;
  plan : Fault_plan.t;
  violation : Oracle.violation;
  trace : string;
  shrunk : bool;
}

type verdict = Pass of { sends : int; deliveries : int } | Fail of report

let orderings =
  [
    ("fbcast", Config.Fifo);
    ("cbcast", Config.Causal);
    ("abcast", Config.Total_sequencer);
    ("lamport", Config.Total_lamport);
  ]

let ordering_of_string s =
  match String.lowercase_ascii s with
  | "fifo" -> Some Config.Fifo
  | s -> List.assoc_opt s orderings

(* Reactive sends stop after this many so a dup-burst amplifying a reaction
   cascade cannot run away; the cap is part of the deterministic schedule. *)
let reaction_budget = 240

let max_reaction_depth = 3

let config ordering =
  {
    Config.default with
    ordering;
    transport = Config.Reliable { rto = Sim_time.ms 10; max_retries = 400 };
    failure_detection = Config.Oracle;
    (* the checker always exercises PC over the full mesh: overlay routing
       is orthogonal to the ordering properties under test, and the mesh
       keeps every member one forwarding hop away even when partitions
       sever the direct link *)
    pc_overlay = Config.Pc_full_mesh;
    (* no oracle reads the shared causal graph, and it is cross-member
       mutable state the parallel engine rejects *)
    track_graph = false;
  }

let execute ?(engine_impl = Engine.Sequential) ~config ~seed
    (plan : Fault_plan.t) =
  let parallel =
    match engine_impl with Engine.Sequential -> false | Engine.Parallel _ -> true
  in
  let net =
    Net.create
      ~latency:(Net.Uniform (Sim_time.us 100, Sim_time.us 20_000))
      ()
  in
  let engine =
    Engine.create ~impl:engine_impl
      ~seed:(Int64.of_int ((seed * 1_000_003) + 7919))
      ~net ()
  in
  let oracle = Oracle.create ~sharded:parallel () in
  let stacks : (Engine.pid, stack) Hashtbl.t = Hashtbl.create 16 in
  (* Reaction budget. Sequential keeps the historical global pool; parallel
     runs split it into per-member allowances (each touched only by its
     member's lane) so the reaction schedule cannot depend on cross-lane
     decrement interleaving. Cells are created at registration — always a
     single-threaded context — never lazily from delivery callbacks. *)
  let budgets : (Engine.pid, int ref) Hashtbl.t = Hashtbl.create 16 in
  let per_member_budget =
    max 1 (reaction_budget / max 1 plan.Fault_plan.n_members)
  in
  let global_budget = ref reaction_budget in
  let add_budget pid =
    if parallel then Hashtbl.replace budgets pid (ref per_member_budget)
  in
  let budget_cell pid =
    if parallel then Hashtbl.find budgets pid else global_budget
  in
  let usable pid =
    match Hashtbl.find_opt stacks pid with
    | Some st when Engine.is_alive engine pid && not (Stack.is_ejected st) ->
      Some st
    | _ -> None
  in
  let multicast_from pid ~depth ~via =
    match usable pid with
    | None -> ()
    | Some st ->
      let uid =
        Oracle.note_send oracle ~sender:pid ~at:(Engine.now engine) ~depth
          ~partial:false
      in
      via st uid
  in
  let make_callbacks pid =
    {
      Stack.deliver =
        (fun ~sender:_ uid ->
          Oracle.note_delivery oracle ~pid ~uid ~at:(Engine.now engine);
          (* deterministic reaction rule: roughly a third of deliveries
             provoke a follow-up multicast, giving the causal oracle real
             cross-sender dependencies to check *)
          let budget = budget_cell pid in
          if
            !budget > 0
            && Oracle.send_depth oracle uid < max_reaction_depth
            && (uid + pid) mod 3 = 0
          then begin
            decr budget;
            multicast_from pid
              ~depth:(Oracle.send_depth oracle uid + 1)
              ~via:Stack.multicast
          end);
      view_change =
        (fun view ->
          Oracle.note_install oracle ~pid ~view_id:view.Group.view_id
            ~members:(Array.to_list view.Group.members)
            ~at:(Engine.now engine));
      member_failed = (fun _ -> ());
      direct = (fun ~src:_ _ -> ());
    }
  in
  let names = List.init plan.Fault_plan.n_members (Printf.sprintf "p%d") in
  (* the payload codec is used only under [Encoded] *)
  let payload_codec = Repro_catocs.Wire_codec.int_payload in
  let group = Stack.create_group ~payload_codec ~engine ~config ~names () in
  let initial = Array.map Stack.self group in
  let all_initial = Array.to_list initial in
  Array.iter
    (fun st ->
      let pid = Stack.self st in
      Stack.set_callbacks st (make_callbacks pid);
      Hashtbl.replace stacks pid st;
      add_budget pid;
      Oracle.register_member oracle ~pid ~name:(Engine.name engine pid)
        ~view:(Some (0, all_initial)))
    group;
  let shared = Stack.shared_of group.(0) in
  (* workload *)
  List.iter
    (fun (at, idx) ->
      Engine.at engine at (fun () ->
          multicast_from initial.(idx) ~depth:0 ~via:Stack.multicast))
    plan.Fault_plan.sends;
  (* faults *)
  let join_count = ref 0 in
  let apply_fault = function
    | Fault_plan.Drop_burst { at; until; probability } ->
      Engine.at engine at (fun () -> Net.set_drop_probability net probability);
      Engine.at engine until (fun () -> Net.set_drop_probability net 0.0)
    | Fault_plan.Dup_burst { at; until; probability } ->
      Engine.at engine at (fun () ->
          Net.set_duplicate_probability net probability);
      Engine.at engine until (fun () -> Net.set_duplicate_probability net 0.0)
    | Fault_plan.Partition { at; heal_at; side } ->
      let side_pids = List.map (fun i -> initial.(i)) side in
      let other_pids =
        List.filter (fun p -> not (List.mem p side_pids)) all_initial
      in
      Engine.at engine at (fun () -> Net.partition net side_pids other_pids);
      Engine.at engine heal_at (fun () -> Net.heal net)
    | Fault_plan.Crash { at; victim } ->
      Engine.at engine at (fun () -> Engine.crash engine initial.(victim))
    | Fault_plan.Partial_multicast { at; sender; recipients; crash_after } ->
      Engine.at engine at (fun () ->
          let spid = initial.(sender) in
          match usable spid with
          | Some st when not (Stack.is_flushing st) ->
            let uid =
              Oracle.note_send oracle ~sender:spid ~at:(Engine.now engine)
                ~depth:0 ~partial:true
            in
            Stack.inject_partial_multicast st uid
              ~recipients:(List.map (fun i -> initial.(i)) recipients);
            (* the paper's scenario: the sender dies mid-multicast, so the
               survivors' flush must make delivery all-or-none *)
            Engine.after engine crash_after (fun () ->
                Engine.crash engine spid)
          | _ -> ())
    | Fault_plan.Join { at } ->
      Engine.at engine at (fun () ->
          match List.find_map usable all_initial with
          | None -> ()
          | Some contact ->
            let k = !join_count in
            incr join_count;
            let name = Printf.sprintf "j%d" k in
            let pid = Engine.spawn engine ~name (fun _ _ -> ()) in
            add_budget pid;
            Oracle.register_member oracle ~pid ~name ~view:None;
            let st =
              Stack.join ~payload_codec ~engine ~shared ~config ~self:pid
                ~contact:(Stack.self contact)
                ~callbacks:(make_callbacks pid) ()
            in
            Hashtbl.replace stacks pid st)
  in
  List.iter apply_fault plan.Fault_plan.faults;
  (* quiescence: stop injecting, heal everything, let the protocol settle *)
  Engine.at engine plan.Fault_plan.horizon (fun () ->
      Net.set_drop_probability net 0.0;
      Net.set_duplicate_probability net 0.0;
      Net.heal net);
  Engine.run
    ~until:(Sim_time.add plan.Fault_plan.horizon (Sim_time.seconds 3))
    engine;
  let survivors =
    List.filter
      (fun pid ->
        Oracle.has_install oracle pid
        &&
        match usable pid with Some _ -> true | None -> false)
      (Oracle.member_pids oracle)
  in
  (oracle, survivors, stacks)

let make_report ~seed ~config ~shrunk plan (violation, oracle) =
  let trace =
    Format.asprintf "@[<v>%a@]" (fun fmt o -> Oracle.pp_trace fmt o ~uids:violation.Oracle.uids) oracle
  in
  { seed; config; plan; violation; trace; shrunk }

(* Execute the plan and judge it: the recorded run, and its verdict with an
   unshrunk report on failure. *)
let judged ?engine_impl ~config ~seed plan =
  let oracle, survivors, _ = execute ?engine_impl ~config ~seed plan in
  ( oracle,
    match Oracle.check oracle ~ordering:config.Config.ordering ~survivors with
    | None ->
      Pass
        {
          sends = Oracle.send_count oracle;
          deliveries = Oracle.delivery_count oracle;
        }
    | Some violation ->
      Fail (make_report ~seed ~config ~shrunk:false plan (violation, oracle))
  )

(* Greedy fault-plan shrinking: find the shortest failing prefix of the
   fault list, then drop single faults (last first) while the plan still
   fails. Every candidate is a full deterministic re-execution, so the
   shrunk plan is guaranteed to still reproduce a violation; the kept
   faults are always those of the best report's plan. [judge] is [judged]
   under the seed and settings of the run. *)
let shrink_plan ~judge plan report =
  let fails faults =
    match snd (judge (Fault_plan.with_faults plan faults)) with
    | Fail r -> Some r
    | Pass _ -> None
  in
  let faults = Array.of_list plan.Fault_plan.faults in
  let n = Array.length faults in
  let prefix k = Array.to_list (Array.sub faults 0 k) in
  let rec first_failing_prefix k =
    if k >= n then report
    else
      match fails (prefix k) with
      | Some r -> r
      | None -> first_failing_prefix (k + 1)
  in
  let best = ref (first_failing_prefix 0) in
  for i = List.length !best.plan.Fault_plan.faults - 1 downto 0 do
    match
      fails (List.filteri (fun j _ -> j <> i) !best.plan.Fault_plan.faults)
    with
    | Some r -> best := r
    | None -> ()
  done;
  { !best with shrunk = true }

let replay ?engine_impl ~config ~seed plan =
  snd (judged ?engine_impl ~config ~seed plan)

let run_seed ?(profile = Fault_plan.default_profile) ?(shrink = true)
    ?engine_impl ~config ~seed () =
  let judge = judged ?engine_impl ~config ~seed in
  let plan = Fault_plan.generate ~seed profile in
  match snd (judge plan) with
  | Fail report when shrink -> Fail (shrink_plan ~judge plan report)
  | verdict -> verdict

type sweep_result = {
  passed : int;
  failed : report option;
  total_sends : int;
  total_deliveries : int;
}

let sweep ?(profile = Fault_plan.default_profile) ?(shrink = true)
    ?(start_seed = 0) ?on_seed ?engine_impl ~config ~seeds () =
  let rec go i acc_pass acc_s acc_d =
    if i >= seeds then
      { passed = acc_pass; failed = None; total_sends = acc_s;
        total_deliveries = acc_d }
    else
      let seed = start_seed + i in
      match run_seed ~profile ~shrink ?engine_impl ~config ~seed () with
      | Pass { sends; deliveries } ->
        (match on_seed with Some f -> f ~seed ~ok:true | None -> ());
        go (i + 1) (acc_pass + 1) (acc_s + sends) (acc_d + deliveries)
      | Fail report ->
        (match on_seed with Some f -> f ~seed ~ok:false | None -> ());
        { passed = acc_pass; failed = Some report; total_sends = acc_s;
          total_deliveries = acc_d }
  in
  go 0 0 0 0

(* --- execution export for the offline analyzer ----------------------------- *)

let exec_of_plan ?engine_impl ~config ~seed plan =
  let oracle, verdict = judged ?engine_impl ~config ~seed plan in
  let ordering = config.Config.ordering in
  let label =
    Printf.sprintf "%s seed %d" (Config.ordering_name ordering) seed
  in
  (Oracle.to_exec oracle ~ordering ~label, verdict)

let exec_of_seed ~config ~seed () =
  exec_of_plan ~config ~seed
    (Fault_plan.generate ~seed Fault_plan.default_profile)

let member_metrics ~config ~seed () =
  let plan = Fault_plan.generate ~seed Fault_plan.default_profile in
  let oracle, _, stacks =
    execute ~config:{ config with Config.metrics = true } ~seed plan
  in
  List.filter_map
    (fun pid ->
      Option.map
        (fun st ->
          (Oracle.name_of oracle pid, Stack.metrics st, Stack.registry st))
        (Hashtbl.find_opt stacks pid))
    (Oracle.member_pids oracle)

(* The selectors a report names beside its ordering: those set away from
   [config]'s BSS layer, [Structural] wire and dense clock, so a report
   under the checker's own settings reads as it always has. *)
let settings_note (c : Config.t) =
  (match c.causal_impl with
   | Config.Pc_causal -> ", pc causal layer"
   | Config.Vector_causal -> "")
  ^ (match c.wire_format with
     | Config.Encoded -> ", encoded wire"
     | Config.Structural -> "")
  ^ (match c.stability_clock with
     | Config.Sparse_clock -> ", sparse clock"
     | Config.Dense_clock -> "")

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>counterexample (seed %d, %s%s%s)@,oracle: %s@,member: %s@,%s@,@,\
     fault plan:@,%a@,@,trace:@,%s@]"
    r.seed
    (Config.ordering_name r.config.Config.ordering)
    (settings_note r.config)
    (if r.shrunk then ", shrunk" else "")
    r.violation.Oracle.oracle r.violation.Oracle.member
    r.violation.Oracle.detail Fault_plan.pp r.plan r.trace

(* Canonical string for determinism tests: two runs of the same seed must
   produce byte-identical fingerprints. *)
let fingerprint = function
  | Pass { sends; deliveries } -> Printf.sprintf "pass s=%d d=%d" sends deliveries
  | Fail r -> Format.asprintf "fail %a" pp_report r
