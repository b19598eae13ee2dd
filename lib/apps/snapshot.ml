module Config = Repro_catocs.Config
module Stack = Repro_catocs.Stack
module Metrics = Repro_catocs.Metrics

type mode = Catocs_cut | Chandy_lamport

let seed = 1L
let processes = 5
let initial_balance = 1000
let transfers = 300
let transfer_interval = Sim_time.ms 2
let snapshot_at = Sim_time.ms 300

(** must be FIFO-safe (Fixed) for Chandy-Lamport *)
let latency = Net.Fixed (Sim_time.ms 2)

type msg =
  | Transfer of { from_ : int; to_ : int; amount : int }
  | Marker

type result = {
  mode : mode;
  transfers_completed : int;
  snapshot_sum : int;
  expected_sum : int;
  snapshot_consistent : bool;
  snapshot_messages : int;
  total_messages : int;
  ordering_header_bytes : int;
}

let mode_name = function
  | Catocs_cut -> "catocs-total-order-cut"
  | Chandy_lamport -> "chandy-lamport-markers"

let pick_transfer rng k =
  let from_ = k mod processes in
  let to_ = (from_ + 1 + Rng.int rng (processes - 1)) mod processes in
  let amount = 1 + Rng.int rng 10 in
  (from_, to_, amount)

(* ---- CATOCS: totally ordered transfers; the marker is just a message ---- *)

let run_catocs () =
  let net = Net.create ~latency () in
  let engine = Engine.create ~seed ~net () in
  let rng = Rng.split (Engine.rng engine) in
  let stacks =
    Stack.create_group ~engine
      ~config:{ Config.default with Config.ordering = Config.Total_sequencer }
      ~names:(List.init processes (fun i -> Printf.sprintf "p%d" i)) ()
  in
  let balances = Array.make processes initial_balance in
  let recorded = Array.make processes None in
  let transfers_applied = ref 0 in
  Array.iteri
    (fun idx stack ->
      Stack.set_callbacks stack
        { Stack.null_callbacks with
          Stack.deliver =
            (fun ~sender:_ msg ->
              match msg with
              | Transfer { from_; to_; amount } ->
                if from_ = idx then balances.(idx) <- balances.(idx) - amount;
                if to_ = idx then balances.(idx) <- balances.(idx) + amount;
                if from_ = idx then incr transfers_applied
              | Marker ->
                (* total order makes this delivery point a consistent cut *)
                recorded.(idx) <- Some balances.(idx)) })
    stacks;
  for k = 0 to transfers - 1 do
    let from_, to_, amount = pick_transfer rng k in
    Engine.at engine (Sim_time.add (Sim_time.ms 5) (k * transfer_interval))
      (fun () -> Stack.multicast stacks.(from_) (Transfer { from_; to_; amount }))
  done;
  Engine.at engine snapshot_at (fun () ->
      Stack.multicast stacks.(0) Marker);
  Engine.run
    ~until:
      (Sim_time.add (transfers * transfer_interval) (Sim_time.seconds 1))
    engine;
  let snapshot_sum =
    Array.fold_left
      (fun acc r -> match r with Some b -> acc + b | None -> acc)
      0 recorded
  in
  let expected_sum = processes * initial_balance in
  { mode = Catocs_cut;
    transfers_completed = !transfers_applied;
    snapshot_sum; expected_sum;
    snapshot_consistent = snapshot_sum = expected_sum;
    snapshot_messages = 2 * (processes - 1);
    (* the marker multicast and its sequencer order *)
    total_messages = Engine.messages_sent engine;
    ordering_header_bytes =
      Array.fold_left
        (fun acc s -> acc + (Stack.metrics s).Metrics.header_bytes)
        0 stacks }

(* ---- Chandy-Lamport over plain FIFO channels ----------------------------- *)

type cl_process = {
  mutable balance : int;
  mutable recorded_balance : int option;
  mutable channel_recording : (int, int ref) Hashtbl.t;
      (* src -> money recorded in flight; present iff still recording *)
  mutable channel_recorded : (int, int) Hashtbl.t;  (* src -> final amount *)
}

let run_chandy_lamport () =
  let net = Net.create ~latency () in
  let engine = Engine.create ~seed ~net () in
  let rng = Rng.split (Engine.rng engine) in
  let states =
    Array.init processes (fun _ ->
        { balance = initial_balance; recorded_balance = None;
          channel_recording = Hashtbl.create 8;
          channel_recorded = Hashtbl.create 8 })
  in
  let pids =
    Array.init processes (fun i ->
        Engine.spawn engine ~name:(Printf.sprintf "p%d" i) (fun _ _ -> ()))
  in
  let snapshot_messages = ref 0 in
  let transfers_applied = ref 0 in
  let others idx = List.filter (fun j -> j <> idx) (List.init processes Fun.id) in
  let start_snapshot idx ~first_marker_from =
    let state = states.(idx) in
    if state.recorded_balance = None then begin
      state.recorded_balance <- Some state.balance;
      (* channels: the one the marker came on is empty; record the rest *)
      List.iter
        (fun src ->
          match first_marker_from with
          | Some m when m = src -> Hashtbl.replace state.channel_recorded src 0
          | Some _ | None ->
            Hashtbl.replace state.channel_recording src (ref 0))
        (others idx);
      List.iter
        (fun dst ->
          incr snapshot_messages;
          Engine.send engine ~src:pids.(idx) ~dst:pids.(dst) Marker)
        (others idx)
    end
  in
  Array.iteri
    (fun idx pid ->
      Engine.set_handler engine pid (fun _ env ->
          let state = states.(idx) in
          let src_idx =
            let rec find j = if pids.(j) = env.Engine.src then j else find (j + 1) in
            find 0
          in
          match env.Engine.payload with
          | Transfer { amount; _ } ->
            state.balance <- state.balance + amount;
            incr transfers_applied;
            (match Hashtbl.find_opt state.channel_recording src_idx with
             | Some r -> r := !r + amount
             | None -> ())
          | Marker ->
            (match Hashtbl.find_opt state.channel_recording src_idx with
             | Some r ->
               Hashtbl.replace state.channel_recorded src_idx !r;
               Hashtbl.remove state.channel_recording src_idx
             | None ->
               (* first marker (or a marker on an unrecorded channel) *)
               ());
            start_snapshot idx ~first_marker_from:(Some src_idx)))
    pids;
  for k = 0 to transfers - 1 do
    let from_, to_, amount = pick_transfer rng k in
    Engine.at engine (Sim_time.add (Sim_time.ms 5) (k * transfer_interval))
      (fun () ->
        states.(from_).balance <- states.(from_).balance - amount;
        Engine.send engine ~src:pids.(from_) ~dst:pids.(to_)
          (Transfer { from_; to_; amount }))
  done;
  Engine.at engine snapshot_at (fun () ->
      start_snapshot 0 ~first_marker_from:None);
  Engine.run
    ~until:
      (Sim_time.add (transfers * transfer_interval) (Sim_time.seconds 1))
    engine;
  let snapshot_sum =
    Array.fold_left
      (fun acc state ->
        let balances = match state.recorded_balance with Some b -> b | None -> 0 in
        let channels =
          Hashtbl.fold (fun _ v acc -> acc + v) state.channel_recorded 0
        in
        acc + balances + channels)
      0 states
  in
  let expected_sum = processes * initial_balance in
  { mode = Chandy_lamport;
    transfers_completed = !transfers_applied;
    snapshot_sum; expected_sum;
    snapshot_consistent = snapshot_sum = expected_sum;
    snapshot_messages = !snapshot_messages;
    total_messages = Engine.messages_sent engine;
    ordering_header_bytes = 0 }

let run mode =
  match mode with
  | Catocs_cut -> run_catocs ()
  | Chandy_lamport -> run_chandy_lamport ()
