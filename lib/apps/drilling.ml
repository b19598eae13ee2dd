module Config = Repro_catocs.Config
module Stack = Repro_catocs.Stack
module Group = Repro_catocs.Group

type mode = Catocs_scheduling | Central_controller

let seed = 1L
let drillers = 4
let holes = 40
let drill_time = Sim_time.ms 20
let latency = Net.Uniform (500, 3_000)

type config = {
  crash : (int * Sim_time.t) option;
  mode : mode;
}

let default_config = { crash = None; mode = Central_controller }

type result = {
  mode : mode;
  holes : int;
  drilled_once : int;
  double_drilled : int;
  check_list : int;
  messages_total : int;
  messages_per_hole : float;
  completion_time_ms : float;
}

let mode_name = function
  | Catocs_scheduling -> "catocs-scheduling"
  | Central_controller -> "central-controller"

(* physical ground truth shared by both modes *)
type plant = {
  drill_events : (int, int list ref) Hashtbl.t;  (* hole -> drillers *)
  mutable last_drill_at : Sim_time.t;
}

let new_plant () = { drill_events = Hashtbl.create 64; last_drill_at = 0 }

let record_drill plant ~hole ~driller ~now =
  (match Hashtbl.find_opt plant.drill_events hole with
   | Some l -> l := driller :: !l
   | None -> Hashtbl.add plant.drill_events hole (ref [ driller ]));
  plant.last_drill_at <- now

let summarise (config : config) plant ~check_list ~messages_total =
  let drilled_once = ref 0 and double = ref 0 in
  Hashtbl.iter
    (fun _ l -> if List.length !l = 1 then incr drilled_once else incr double)
    plant.drill_events;
  { mode = config.mode; holes; drilled_once = !drilled_once;
    double_drilled = !double; check_list;
    messages_total;
    messages_per_hole = float_of_int messages_total /. float_of_int holes;
    completion_time_ms = Sim_time.to_ms_float plant.last_drill_at }

(* ---- CATOCS distributed scheduling -------------------------------------- *)

type cat_msg = Job of int | Done_hole of { hole : int; by : Engine.pid }

type driller_state = {
  mutable job : int option;
  mutable initial_view : Group.view option;
  done_holes : (int, unit) Hashtbl.t;
  checklist : (int, unit) Hashtbl.t;
  mutable busy : bool;
}

(* Hole ownership: the original assignee keeps its holes as long as it
   lives (so a view change never moves a survivor's in-progress hole);
   holes of failed drillers are re-derived deterministically from the
   current view. Every member computes the same function because the done
   set, the check list and the view are identical under virtual
   synchrony. *)
let owner ~initial ~view h =
  let orig = Group.member initial (h mod Group.size initial) in
  if Group.mem view orig then orig
  else Group.member view (h mod Group.size view)

let run_catocs (config : config) =
  let net = Net.create ~latency () in
  let engine = Engine.create ~seed ~net () in
  let plant = new_plant () in
  let group_config =
    { Config.default with Config.ordering = Config.Total_sequencer }
  in
  let stacks =
    Stack.create_group ~engine ~config:group_config
      ~names:(List.init drillers (Printf.sprintf "driller%d")) ()
  in
  let states =
    Array.map
      (fun _ ->
        { job = None; initial_view = None; done_holes = Hashtbl.create 64;
          checklist = Hashtbl.create 16; busy = false })
      stacks
  in
  let first_hole_owned_by state stack ~view pid =
    match (state.job, state.initial_view) with
    | Some holes, Some initial ->
      ignore stack;
      let rec scan h =
        if h >= holes then None
        else if
          (not (Hashtbl.mem state.done_holes h))
          && (not (Hashtbl.mem state.checklist h))
          && owner ~initial ~view h = pid
        then Some h
        else scan (h + 1)
      in
      scan 0
    | _ -> None
  in
  let my_next_hole state stack =
    first_hole_owned_by state stack ~view:(Stack.view stack) (Stack.self stack)
  in
  let rec work idx =
    let state = states.(idx) in
    let stack = stacks.(idx) in
    if (not state.busy) && Engine.is_alive engine (Stack.self stack) then
      match my_next_hole state stack with
      | None -> ()
      | Some hole ->
        state.busy <- true;
        Engine.after engine ~owner:(Stack.self stack) drill_time
          (fun () ->
            state.busy <- false;
            if not (Hashtbl.mem state.done_holes hole) then begin
              record_drill plant ~hole ~driller:idx ~now:(Engine.now engine);
              Hashtbl.replace state.done_holes hole ();
              Stack.multicast stack
                (Done_hole { hole; by = Stack.self stack })
            end;
            work idx)
  in
  Array.iteri
    (fun idx stack ->
      let state = states.(idx) in
      Stack.set_callbacks stack
        {
          Stack.deliver =
            (fun ~sender:_ msg ->
              match msg with
              | Job holes ->
                state.job <- Some holes;
                state.initial_view <- Some (Stack.view stack);
                work idx
              | Done_hole { hole; _ } ->
                Hashtbl.replace state.done_holes hole ();
                work idx);
          view_change = (fun _ -> work idx);
          member_failed =
            (fun failed_pid ->
              (* the failed driller's in-progress hole — deterministically
                 its first undone owned hole in the pre-failure view — may
                 be half drilled: put it on the check list *)
              let current = Stack.view stack in
              let old_view =
                Group.make_view ~view_id:(current.Group.view_id - 1)
                  (failed_pid :: Array.to_list current.Group.members)
              in
              match first_hole_owned_by state stack ~view:old_view failed_pid with
              | Some h -> Hashtbl.replace state.checklist h ()
              | None -> ());
          direct = (fun ~src:_ _ -> ());
        })
    stacks;
  (match config.crash with
   | Some (i, at) ->
     Engine.at engine at (fun () -> Engine.crash engine (Stack.self stacks.(i)))
   | None -> ());
  Engine.at engine (Sim_time.ms 5) (fun () ->
      Stack.multicast stacks.(0) (Job holes));
  (* run until every live driller sees the job finished (gossip timers never
     drain, so a fixed long horizon would inflate the message count) *)
  let finished () =
    Array.for_all2
      (fun stack state ->
        (not (Engine.is_alive engine (Stack.self stack)))
        || Hashtbl.length state.done_holes + Hashtbl.length state.checklist
           >= holes)
      stacks states
  in
  let horizon =
    Sim_time.add (Sim_time.seconds 10) (holes * drill_time)
  in
  let rec advance t =
    if (not (finished ())) && Sim_time.compare t horizon < 0 then begin
      let t' = Sim_time.add t (Sim_time.ms 50) in
      Engine.run ~until:t' engine;
      advance t'
    end
  in
  advance Sim_time.zero;
  let check_list =
    Array.fold_left
      (fun acc s -> max acc (Hashtbl.length s.checklist))
      0 states
  in
  summarise config plant ~check_list ~messages_total:(Engine.messages_sent engine)

(* ---- central controller --------------------------------------------------- *)

type central_msg =
  | Assign of int
  | Report_done of { hole : int; by : int }
  | Mirror of { hole : int }

let run_central (config : config) =
  let net = Net.create ~latency () in
  let engine = Engine.create ~seed ~net () in
  let plant = new_plant () in
  let driller_pids =
    Array.init drillers (fun i ->
        Engine.spawn engine ~name:(Printf.sprintf "driller%d" i) (fun _ _ -> ()))
  in
  let controller = Engine.spawn engine ~name:"controller" (fun _ _ -> ()) in
  let backup = Engine.spawn engine ~name:"backup" (fun _ _ -> ()) in
  (* controller state *)
  let queues = Array.make drillers [] in
  for h = holes - 1 downto 0 do
    let d = h mod drillers in
    queues.(d) <- h :: queues.(d)
  done;
  let in_flight = Array.make drillers None in
  let done_holes : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let checklist : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let dispatch d =
    match queues.(d) with
    | [] -> ()
    | hole :: rest ->
      queues.(d) <- rest;
      in_flight.(d) <- Some hole;
      Engine.send engine ~src:controller ~dst:driller_pids.(d) (Assign hole)
  in
  Engine.set_handler engine controller (fun _ env ->
      match env.Engine.payload with
      | Report_done { hole; by } ->
        Hashtbl.replace done_holes hole ();
        in_flight.(by) <- None;
        Engine.send engine ~src:controller ~dst:backup (Mirror { hole });
        dispatch by
      | Assign _ | Mirror _ -> ());
  Engine.set_handler engine backup (fun _ _ -> ());
  Array.iteri
    (fun idx pid ->
      Engine.set_handler engine pid (fun _ env ->
          match env.Engine.payload with
          | Assign hole ->
            Engine.after engine ~owner:pid drill_time (fun () ->
                record_drill plant ~hole ~driller:idx ~now:(Engine.now engine);
                Engine.send engine ~src:pid ~dst:controller
                  (Report_done { hole; by = idx }))
          | Report_done _ | Mirror _ -> ()))
    driller_pids;
  (* failure handling: the in-progress hole goes on the check list, the
     failed driller's queue is redistributed *)
  Engine.on_failure engine (fun pid ->
      Array.iteri
        (fun d dpid ->
          if dpid = pid then begin
            (match in_flight.(d) with
             | Some hole when not (Hashtbl.mem done_holes hole) ->
               Hashtbl.replace checklist hole ();
               in_flight.(d) <- None
             | Some _ | None -> ());
            let orphaned = queues.(d) in
            queues.(d) <- [];
            List.iteri
              (fun i hole ->
                let survivor = (d + 1 + i) mod drillers in
                let survivor =
                  if Engine.is_alive engine driller_pids.(survivor) then survivor
                  else (survivor + 1) mod drillers
                in
                queues.(survivor) <- queues.(survivor) @ [ hole ];
                if in_flight.(survivor) = None then dispatch survivor)
              orphaned
          end)
        driller_pids);
  (match config.crash with
   | Some (i, at) -> Engine.at engine at (fun () -> Engine.crash engine driller_pids.(i))
   | None -> ());
  Engine.at engine (Sim_time.ms 5) (fun () ->
      for d = 0 to drillers - 1 do
        dispatch d
      done);
  Engine.run
    ~until:(Sim_time.add (Sim_time.seconds 10) (holes * drill_time))
    engine;
  summarise config plant ~check_list:(Hashtbl.length checklist)
    ~messages_total:(Engine.messages_sent engine)

let run (config : config) =
  match config.mode with
  | Catocs_scheduling -> run_catocs config
  | Central_controller -> run_central config
