type pid = int

type impl = Sequential | Parallel of { domains : int }

type 'msg envelope = {
  src : pid;
  dst : pid;
  sent_at : Sim_time.t;
  recv_at : Sim_time.t;
  payload : 'msg;
}

type 'msg process = {
  proc_name : string;
  mutable handler : pid -> 'msg envelope -> unit;
  mutable alive : bool;
  mutable busy_until : Sim_time.t;
      (* receiver-side processing queue (Net.processing_time) *)
}

(* ------------------------------------------------------------------------- *)
(* Lanes.

   A {e lane} is an event queue with its own clock, rng stream and message
   counters. Every engine has a control lane (pid -1) for ownerless timers
   and crash-observer notifications — actions that may touch many
   processes.

   Every queue entry carries a key (source lane, source seq): the lane
   whose code pushed it (for a packet, the sender's lane; the control lane
   for setup and control-lane actions) and that lane's emission counter,
   bumped at every push it originates. A queue runs its events in (time,
   key) order. Keys are unique, so the order depends only on the entries,
   never on the order they were pushed in.

   [Sequential] puts every process on the control lane, which draws from
   the engine's own rng: every key is a control-lane key, the whole run is
   one (time, seq) order.

   [Parallel] gives each process its own lane, with an rng stream split off
   the seed in pid order, so a process's schedule evolves identically no
   matter which domain hosts it. Lanes interact only through messages, and
   every message delay is at least the network's latency floor [W], so
   events in the window [kW, (k+1)W) of different lanes are causally
   independent: a send at time s arrives at s + delay >= (k+1)W. Each epoch
   the control lane drains single-threaded, then the process lanes run
   concurrently (domain d owns the lanes with pid mod domains = d). A
   worker pushing to another lane puts the entry in its own lane's outbox;
   the barrier moves every outbox entry into its target's queue. Since the
   keys fix the pop order, the delivery schedule is a pure function of the
   seed, independent of the domain count. *)

type lane = {
  lane_pid : int;
  lrng : Rng.t;
  mutable lclock : Sim_time.t;
  mutable lsent : int;
  mutable ldelivered : int;
  mutable ldropped : int;
  mutable oseq : int;  (* emission counter: the seq half of the lane's keys *)
  mutable steps : int;  (* events processed (event-budget accounting) *)
  current : lane option;  (* [Some] this lane, built once for [current_lane] *)
}

(* Which lane the executing domain is currently advancing; [None] outside
   lane processing (setup code, barriers). Domain-local by construction:
   each domain only ever writes its own slot. *)
let current_lane : lane option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(* A key packs (source lane + 1) above 40 bits of seq (2^40 pushes per
   lane): the control lane's keys are its bare seq. [spawn] keeps the lane
   part inside an int. *)
let seq_bits = 40

let next_key lane =
  let seq = lane.oseq in
  lane.oseq <- seq + 1;
  ((lane.lane_pid + 1) lsl seq_bits) lor seq

(* A lane's event queue (and, under [Parallel], its outbox): a binary
   min-heap on (time, key) held in int arrays, no block per event. An entry
   is a packet (its envelope in [env]) or a timer (its action in [act], its
   owner pid in [owner], -1 for none). A sift moves the keys and the
   payload slot of the entry's kind, so [env] and [act] start at its first
   entry. *)
type 'msg queue = {
  mutable time : int array;
  mutable key : int array;
  mutable owner : int array;  (* [packet] marks a packet entry *)
  mutable env : 'msg envelope array;
  mutable act : (unit -> unit) array;
  mutable size : int;
}

let packet = min_int

let make_queue () =
  { time = [||]; key = [||]; owner = [||]; env = [||]; act = [||]; size = 0 }

let[@inline] earlier q i j =
  q.time.(i) < q.time.(j) || (q.time.(i) = q.time.(j) && q.key.(i) < q.key.(j))

let[@inline] move q ~src ~dst =
  q.time.(dst) <- q.time.(src);
  q.key.(dst) <- q.key.(src);
  let owner = q.owner.(src) in
  q.owner.(dst) <- owner;
  if owner = packet then q.env.(dst) <- q.env.(src)
  else q.act.(dst) <- q.act.(src)

let extend a cap fill =
  let a' = Array.make cap fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

(* The hole a new entry at (time, key) settles in, moving later parents
   down. *)
let rec sift_up q i (time : int) key =
  let parent = (i - 1) / 2 in
  if
    i > 0
    && (time < q.time.(parent)
       || (time = q.time.(parent) && key < q.key.(parent)))
  then begin
    move q ~src:parent ~dst:i;
    sift_up q parent time key
  end
  else i

(* The hole the entry in slot [last] settles in, moving earlier children up;
   only slots below [last] move, so its own keys stay readable. *)
let rec sift_down q i last =
  let left = (2 * i) + 1 in
  if left >= last then i
  else
    let right = left + 1 in
    let child = if right < last && earlier q right left then right else left in
    if earlier q child last then begin
      move q ~src:child ~dst:i;
      sift_down q child last
    end
    else i

let open_slot q time key =
  let cap = Array.length q.time in
  if q.size = cap then begin
    let cap' = if cap = 0 then 16 else 2 * cap in
    q.time <- extend q.time cap' 0;
    q.key <- extend q.key cap' 0;
    q.owner <- extend q.owner cap' 0;
    if Array.length q.env > 0 then q.env <- extend q.env cap' q.env.(0);
    if Array.length q.act > 0 then q.act <- extend q.act cap' q.act.(0)
  end;
  let i = sift_up q q.size time key in
  q.time.(i) <- time;
  q.key.(i) <- key;
  q.size <- q.size + 1;
  i

let push_packet q time key env =
  let i = open_slot q time key in
  if Array.length q.env = 0 then q.env <- Array.make (Array.length q.time) env;
  q.owner.(i) <- packet;
  q.env.(i) <- env

let push_timer q time key ~owner action =
  let i = open_slot q time key in
  if Array.length q.act = 0 then
    q.act <- Array.make (Array.length q.time) action;
  q.owner.(i) <- owner;
  q.act.(i) <- action

let remove_min q =
  let last = q.size - 1 in
  q.size <- last;
  if last > 0 then move q ~src:last ~dst:(sift_down q 0 last)

type 'msg t = {
  impl : impl;
  rng : Rng.t;
  net : Net.t;
  control : lane;
  mutable lanes : lane array;  (* index = pid, grown by spawn *)
  mutable queues : 'msg queue array;  (* index = lane pid + 1, control first *)
  mutable outboxes : 'msg queue array;  (* like [queues] *)
  mutable clock : Sim_time.t;  (* [now] outside lane processing *)
  mutable in_parallel_phase : bool;
      (* workers running: cross-lane pushes must go through outboxes *)
  mutable processes : 'msg process array;
  mutable nprocs : int;
  mutable failure_observers : (pid -> unit) list;
}

let make_lane pid rng =
  let rec lane =
    { lane_pid = pid; lrng = rng; lclock = Sim_time.zero; lsent = 0;
      ldelivered = 0; ldropped = 0; oseq = 0; steps = 0; current = Some lane }
  in
  lane

let create ?(impl = Sequential) ?(seed = 42L) ?(net = Net.create ()) () =
  let rng = Rng.create seed in
  let control_rng =
    match impl with
    | Sequential -> rng
    | Parallel { domains } ->
      if domains < 1 then invalid_arg "Engine.create: domains must be >= 1";
      Rng.split rng
  in
  { impl; rng; net; control = make_lane (-1) control_rng;
    lanes = [||]; queues = [| make_queue () |];
    outboxes = [| make_queue () |]; clock = Sim_time.zero;
    in_parallel_phase = false; processes = [||]; nprocs = 0;
    failure_observers = [] }

let impl t = t.impl
let rng t = t.rng

let now t =
  match !(Domain.DLS.get current_lane) with
  | Some lane -> lane.lclock
  | None -> t.clock

let queue t lane = t.queues.(lane.lane_pid + 1)

(* The lane a timer of [owner] runs on: the control lane for -1. *)
let owner_lane t owner = if owner < 0 then t.control else t.lanes.(owner)

(* Where [source] puts an entry for [target]'s lane: straight into the
   target's queue, unless a worker is running and the target is another
   lane — then into the source's outbox, for the next barrier. *)
let route t ~source ~target =
  if t.in_parallel_phase && source != target then
    t.outboxes.(source.lane_pid + 1)
  else queue t target

(* Timers are clamped to the pushing lane's clock (the barrier clamps
   outbox entries again, to its own). *)
let schedule t ~owner time action =
  let current = !(Domain.DLS.get current_lane) in
  let source = match current with Some lane -> lane | None -> t.control in
  let clock = match current with Some lane -> lane.lclock | None -> t.clock in
  push_timer
    (route t ~source ~target:(owner_lane t owner))
    (if time < clock then clock else time)
    (next_key source) ~owner action

let require_quiescent t what =
  if t.in_parallel_phase && Option.is_some !(Domain.DLS.get current_lane) then
    invalid_arg
      (Printf.sprintf
         "Engine.%s: only from setup or control-lane actions in parallel mode"
         what)

let spawn t ~name handler =
  require_quiescent t "spawn";
  if t.nprocs + 1 >= 1 lsl (Sys.int_size - 1 - seq_bits) then
    invalid_arg "Engine.spawn: too many processes";
  let p = { proc_name = name; handler; alive = true; busy_until = Sim_time.zero } in
  let capacity = Array.length t.processes in
  if t.nprocs = capacity then begin
    let capacity' = if capacity = 0 then 8 else capacity * 2 in
    let arr = Array.make capacity' p in
    Array.blit t.processes 0 arr 0 t.nprocs;
    t.processes <- arr
  end;
  t.processes.(t.nprocs) <- p;
  t.nprocs <- t.nprocs + 1;
  let pid = t.nprocs - 1 in
  let lane =
    match t.impl with
    | Sequential -> t.control
    | Parallel _ ->
      (* one rng split per spawn, in pid order: the per-lane streams are a
         function of the seed alone, not of the domain count *)
      t.queues <- extend t.queues (pid + 2) (make_queue ());
      t.outboxes <- extend t.outboxes (pid + 2) (make_queue ());
      make_lane pid (Rng.split t.rng)
  in
  t.lanes <- extend t.lanes (pid + 1) lane;
  pid

let proc t pid =
  if pid < 0 || pid >= t.nprocs then invalid_arg "Engine: unknown pid";
  t.processes.(pid)

let set_handler t pid handler = (proc t pid).handler <- handler
let handler t pid = (proc t pid).handler
let name t pid = (proc t pid).proc_name
let is_alive t pid = (proc t pid).alive

let deliver t env =
  let p = proc t env.dst in
  let dl = t.lanes.(env.dst) in
  if p.alive && not (Net.blocked t.net ~src:env.src ~dst:env.dst) then begin
    dl.ldelivered <- dl.ldelivered + 1;
    p.handler env.dst env
  end
  else dl.ldropped <- dl.ldropped + 1

(* One copy of a packet on the wire, drawn and keyed from the source lane
   [sl]. *)
let transmit t sl ~src ~dst payload =
  let sent_at = now t in
  let arrival = Sim_time.add sent_at (Net.sample_delay t.net sl.lrng) in
  let processing = Net.processing_time t.net in
  let recv_at =
    if processing = Sim_time.zero then arrival
    else begin
      (* deliveries are serialised at the receiver: queue behind
         whatever it is already processing *)
      let p = proc t dst in
      let start = max arrival p.busy_until in
      let finish = Sim_time.add start processing in
      p.busy_until <- finish;
      finish
    end
  in
  let env = { src; dst; sent_at; recv_at; payload } in
  push_packet (route t ~source:sl ~target:t.lanes.(dst)) recv_at (next_key sl)
    env

(* Randomness and counters belong to the {e source} lane even when the send
   executes on the control lane (a crash observer triggering protocol
   sends): per-source attribution is what keeps the sampled delays a
   function of the seed alone. *)
let send t ~src ~dst payload =
  if (proc t src).alive then begin
    let sl = t.lanes.(src) in
    sl.lsent <- sl.lsent + 1;
    if Net.blocked t.net ~src ~dst || Net.drops t.net sl.lrng then
      sl.ldropped <- sl.ldropped + 1
    else begin
      transmit t sl ~src ~dst payload;
      if Net.duplicates t.net sl.lrng then transmit t sl ~src ~dst payload
    end
  end

let at t ?owner time action =
  match owner with
  | Some pid ->
    ignore (proc t pid);
    schedule t ~owner:pid time action
  | None -> schedule t ~owner:(-1) time action

let after t ?owner delay action = at t ?owner (Sim_time.add (now t) delay) action

let every t ?owner ?start ~period action =
  let cancelled = ref false in
  let rec tick () =
    if not !cancelled then begin
      action ();
      at t ?owner (Sim_time.add (now t) period) tick
    end
  in
  let first =
    match start with Some s -> s | None -> Sim_time.add (now t) period
  in
  at t ?owner first tick;
  fun () -> cancelled := true

let on_failure t observer =
  t.failure_observers <- observer :: t.failure_observers

let crash t pid =
  let p = proc t pid in
  require_quiescent t "crash";
  if p.alive then begin
    p.alive <- false;
    let observers = t.failure_observers in
    let fire () = List.iter (fun observe -> observe pid) observers in
    schedule t ~owner:(-1)
      (Sim_time.add (now t) (Net.detection_delay t.net))
      fire
  end

let recover t pid =
  let p = proc t pid in
  require_quiescent t "recover";
  p.alive <- true

(* the runaway guard, per [run] call *)
let max_events = 50_000_000

(* The event loop: run [lane]'s events before [bound], stopping early once
   its step count reaches [stop]. Each event is read off the queue's slot
   arrays — a packet is delivered, a timer runs unless its owner has
   crashed — so the loop allocates nothing per event. The current-lane slot
   is restored however the loop exits, so an event that raises leaves no
   stale clock behind for [now]. *)
let process_lane t lane ~bound ~stop =
  let q = queue t lane in
  let slot = Domain.DLS.get current_lane in
  let outer = !slot in
  slot := lane.current;
  match
    while lane.steps < stop && q.size > 0 && q.time.(0) < bound do
      lane.lclock <- q.time.(0);
      lane.steps <- lane.steps + 1;
      let owner = q.owner.(0) in
      if owner = packet then begin
        let env = q.env.(0) in
        remove_min q;
        deliver t env
      end
      else begin
        let action = q.act.(0) in
        remove_min q;
        if owner < 0 || (proc t owner).alive then action ()
      end
    done
  with
  | () -> slot := outer
  | exception exn ->
    let bt = Printexc.get_raw_backtrace () in
    slot := outer;
    Printexc.raise_with_backtrace exn bt

(* the first instant past [limit]: the loop bound that still runs [limit] *)
let just_past limit = Sim_time.add limit (Sim_time.us 1)

let runaway () = failwith "Engine.run: event budget exhausted (runaway?)"

(* [Sequential]: every event is on the control lane; drain it in one call.
   The clock follows the last event (also when that event raised), and
   stops at [until] only when events remain past it. *)
let run_sequential ?until t =
  let lane = t.control in
  let bound = match until with Some limit -> just_past limit | None -> max_int in
  let start = lane.steps in
  let stop = start + max_events in
  Fun.protect
    ~finally:(fun () -> if lane.steps > start then t.clock <- lane.lclock)
    (fun () -> process_lane t lane ~bound ~stop);
  if lane.steps = stop then runaway ();
  match until with
  | Some limit when (queue t lane).size > 0 -> t.clock <- limit
  | Some _ | None -> ()

(* ------------------------------------------------------------------------- *)
(* Parallel run loop. *)

(* Move every outbox entry into its target's queue: a packet to its
   destination's lane, a timer to its owner's. The keys fix each queue's
   pop order, so the order of the moves does not matter. Message arrivals
   are >= the barrier by the lookahead argument; only cross-lane timers
   can ask for an already-processed window, and are clamped to it. Runs
   single-threaded at barriers. *)
let exchange t ~barrier_clock =
  for o = 0 to Array.length t.outboxes - 1 do
    let ob = t.outboxes.(o) in
    for i = 0 to ob.size - 1 do
      let time = ob.time.(i) and key = ob.key.(i) and owner = ob.owner.(i) in
      if owner = packet then
        let env = ob.env.(i) in
        push_packet (queue t t.lanes.(env.dst)) time key env
      else
        push_timer (queue t (owner_lane t owner))
          (if time < barrier_clock then barrier_clock else time)
          key ~owner ob.act.(i)
    done;
    ob.size <- 0
  done

let process_share t ~domains ~bound ~me =
  let lanes = t.lanes in
  let n = Array.length lanes in
  let i = ref me in
  while !i < n do
    process_lane t lanes.(!i) ~bound ~stop:max_int;
    i := !i + domains
  done

(* The earliest queued event time; [max_int] when every queue is empty. *)
let next_event_time t =
  Array.fold_left
    (fun next q -> if q.size > 0 && q.time.(0) < next then q.time.(0) else next)
    max_int t.queues

let total_steps t =
  Array.fold_left (fun acc l -> acc + l.steps) t.control.steps t.lanes

let run_parallel ?until t ~domains =
  if Net.processing_time t.net <> Sim_time.zero then
    invalid_arg "Engine.run: parallel mode needs Net.processing_time = 0";
  let w = Sim_time.to_us (Net.min_latency t.net) in
  if w <= 0 then
    invalid_arg "Engine.run: parallel mode needs a positive latency floor";
  let base_steps = total_steps t in
  (* a previous run that raised in a worker phase may have left entries in
     the outboxes *)
  exchange t ~barrier_clock:t.clock;
  let mutex = Mutex.create () in
  let cond = Condition.create () in
  let generation = ref 0 in
  let done_count = ref 0 in
  let cur_bound = ref Sim_time.zero in
  let stop = ref false in
  let worker_error = ref None in
  let worker id () =
    let mygen = ref 0 in
    let running = ref true in
    while !running do
      Mutex.lock mutex;
      while (not !stop) && !generation = !mygen do
        Condition.wait cond mutex
      done;
      let g = !generation and s = !stop and bound = !cur_bound in
      Mutex.unlock mutex;
      if s then running := false
      else begin
        mygen := g;
        (try process_share t ~domains ~bound ~me:id
         with exn ->
           Mutex.lock mutex;
           if !worker_error = None then worker_error := Some exn;
           Mutex.unlock mutex);
        Mutex.lock mutex;
        incr done_count;
        Condition.broadcast cond;
        Mutex.unlock mutex
      end
    done
  in
  let workers =
    Array.init (domains - 1) (fun i -> Domain.spawn (worker (i + 1)))
  in
  let release_and_join () =
    Mutex.lock mutex;
    stop := true;
    Condition.broadcast cond;
    Mutex.unlock mutex;
    Array.iter Domain.join workers
  in
  Fun.protect ~finally:release_and_join (fun () ->
      let continue = ref true in
      while !continue do
        let next_time = next_event_time t in
        match until with
        | _ when next_time = max_int -> continue := false
        | Some limit when Sim_time.compare next_time limit > 0 ->
          t.clock <- limit;
          continue := false
        | Some _ | None ->
          let epoch = Sim_time.to_us next_time / w in
          let epoch_end = Sim_time.us ((epoch + 1) * w) in
          let bound =
            match until with
            | Some limit -> min epoch_end (just_past limit)
            | None -> epoch_end
          in
          (* 1. control drain: single-threaded, may touch any lane *)
          process_lane t t.control ~bound ~stop:max_int;
          (* 2. worker phase: each domain advances its own lanes *)
          t.in_parallel_phase <- true;
          if domains > 1 then begin
            Mutex.lock mutex;
            cur_bound := bound;
            done_count := 0;
            incr generation;
            Condition.broadcast cond;
            Mutex.unlock mutex
          end;
          process_share t ~domains ~bound ~me:0;
          if domains > 1 then begin
            Mutex.lock mutex;
            while !done_count < domains - 1 do
              Condition.wait cond mutex
            done;
            Mutex.unlock mutex
          end;
          t.in_parallel_phase <- false;
          (match !worker_error with
           | Some exn -> raise exn
           | None -> ());
          (* 3. barrier: exchange cross-lane traffic, advance the clock *)
          t.clock <-
            (match until with
             | Some limit -> min epoch_end limit
             | None -> epoch_end);
          exchange t ~barrier_clock:bound;
          if total_steps t - base_steps > max_events then runaway ()
      done)

let run ?until t =
  match t.impl with
  | Sequential -> run_sequential ?until t
  | Parallel { domains } -> run_parallel ?until t ~domains

(* [Sequential]'s lanes are all the control lane: count it once *)
let total t count =
  match t.impl with
  | Sequential -> count t.control
  | Parallel _ -> Array.fold_left (fun acc l -> acc + count l) 0 t.lanes

let messages_sent t = total t (fun l -> l.lsent)
let messages_delivered t = total t (fun l -> l.ldelivered)
let messages_dropped t = total t (fun l -> l.ldropped)
