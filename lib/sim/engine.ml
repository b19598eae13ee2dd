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
   counters; its events run in (time, insertion seq) order. Every engine
   has a control lane (pid -1) for ownerless timers and crash-observer
   notifications — actions that may touch many processes.

   [Sequential] puts every process on the control lane, which draws from
   the engine's own rng: the whole run is one (time, seq) order.

   [Parallel] gives each process its own lane, with an rng stream split off
   the seed in pid order, so a process's schedule evolves identically no
   matter which domain hosts it. Lanes interact only through messages, and
   every message delay is at least the network's latency floor [W], so
   events in the window [kW, (k+1)W) of different lanes are causally
   independent: a send at time s arrives at s + delay >= (k+1)W. Each epoch
   the control lane drains single-threaded, then the process lanes run
   concurrently (domain d owns the lanes with pid mod domains = d), then a
   barrier exchanges the sends buffered in per-lane outboxes in (arrival
   time, source lane, emission seq) order, assigning destination sequence
   numbers in that merged order — the delivery schedule is a pure function
   of the seed, independent of the domain count. *)

type pending = {
  out_time : Sim_time.t;
  out_src : int;  (* source lane (-1 = control): merge key, major *)
  out_seq : int;  (* per-source emission counter: merge key, minor *)
  out_dst : int;
  out_owner : int;  (* the timer's owner pid, -1 for none and for a send *)
  out_action : unit -> unit;
}

type lane = {
  lane_pid : int;
  lrng : Rng.t;
  mutable lclock : Sim_time.t;
  mutable lsent : int;
  mutable ldelivered : int;
  mutable ldropped : int;
  mutable outbox : pending list;  (* reversed; drained at each barrier *)
  mutable oseq : int;
  mutable steps : int;  (* events processed (event-budget accounting) *)
}

(* Which lane the executing domain is currently advancing; [None] outside
   lane processing (setup code, barriers). Domain-local by construction:
   each domain only ever writes its own slot. *)
let current_lane : lane option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(* A lane's event queue: a binary min-heap on (time, seq) keys held in int
   arrays, no block per event. An entry is a packet (its envelope in [env])
   or a timer (its action in [act], its owner pid in [owner], -1 for none);
   both kinds share one seq counter. A sift moves the keys and the payload
   slot of the entry's kind, so [env] and [act] start at its first entry. *)
type 'msg queue = {
  mutable time : int array;
  mutable seq : int array;
  mutable owner : int array;  (* [packet] marks a packet entry *)
  mutable env : 'msg envelope array;
  mutable act : (unit -> unit) array;
  mutable size : int;
  mutable next_seq : int;
}

let packet = min_int

let make_queue () =
  { time = [||]; seq = [||]; owner = [||]; env = [||]; act = [||]; size = 0;
    next_seq = 0 }

let[@inline] earlier q i j =
  q.time.(i) < q.time.(j) || (q.time.(i) = q.time.(j) && q.seq.(i) < q.seq.(j))

let[@inline] move q ~src ~dst =
  q.time.(dst) <- q.time.(src);
  q.seq.(dst) <- q.seq.(src);
  let owner = q.owner.(src) in
  q.owner.(dst) <- owner;
  if owner = packet then q.env.(dst) <- q.env.(src)
  else q.act.(dst) <- q.act.(src)

let extend a cap fill =
  let a' = Array.make cap fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

(* The hole a new entry at [time] settles in, moving later parents down. Its
   seq exceeds every queued one, so an equal time stops the climb. *)
let rec sift_up q i (time : int) =
  let parent = (i - 1) / 2 in
  if i > 0 && time < q.time.(parent) then begin
    move q ~src:parent ~dst:i;
    sift_up q parent time
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

let open_slot q time =
  let cap = Array.length q.time in
  if q.size = cap then begin
    let cap' = if cap = 0 then 16 else 2 * cap in
    q.time <- extend q.time cap' 0;
    q.seq <- extend q.seq cap' 0;
    q.owner <- extend q.owner cap' 0;
    if Array.length q.env > 0 then q.env <- extend q.env cap' q.env.(0);
    if Array.length q.act > 0 then q.act <- extend q.act cap' q.act.(0)
  end;
  let i = sift_up q q.size time in
  q.time.(i) <- time;
  q.seq.(i) <- q.next_seq;
  q.next_seq <- q.next_seq + 1;
  q.size <- q.size + 1;
  i

let push_packet q time env =
  let i = open_slot q time in
  if Array.length q.env = 0 then q.env <- Array.make (Array.length q.time) env;
  q.owner.(i) <- packet;
  q.env.(i) <- env

let push_timer q time ~owner action =
  let i = open_slot q time in
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
  mutable clock : Sim_time.t;  (* [now] outside lane processing *)
  mutable in_parallel_phase : bool;
      (* workers running: cross-lane scheduling must go through outboxes *)
  mutable processes : 'msg process array;
  mutable nprocs : int;
  mutable failure_observers : (pid -> unit) list;
}

let make_lane pid rng =
  { lane_pid = pid; lrng = rng; lclock = Sim_time.zero; lsent = 0;
    ldelivered = 0; ldropped = 0; outbox = []; oseq = 0; steps = 0 }

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
    lanes = [||]; queues = [| make_queue () |]; clock = Sim_time.zero;
    in_parallel_phase = false; processes = [||]; nprocs = 0;
    failure_observers = [] }

let impl t = t.impl
let rng t = t.rng

let now t =
  match !(Domain.DLS.get current_lane) with
  | Some lane -> lane.lclock
  | None -> t.clock

let queue t lane = t.queues.(lane.lane_pid + 1)

(* Schedule a timer onto [target]'s lane. Same-lane pushes and pushes from
   the single-threaded contexts (setup, control drain, barriers) go straight
   into the queue, clamped to the current clock; a worker scheduling across
   lanes buffers the entry in its own outbox so the barrier merge orders it
   deterministically. *)
let schedule t ~(target : lane) ~owner time action =
  match !(Domain.DLS.get current_lane) with
  | Some lane when t.in_parallel_phase && lane != target ->
    let seq = lane.oseq in
    lane.oseq <- seq + 1;
    lane.outbox <-
      { out_time = time; out_src = lane.lane_pid; out_seq = seq;
        out_dst = target.lane_pid; out_owner = owner; out_action = action }
      :: lane.outbox
  | current ->
    let clock = match current with Some lane -> lane.lclock | None -> t.clock in
    push_timer (queue t target) (if time < clock then clock else time) ~owner
      action

let require_quiescent t what =
  if t.in_parallel_phase && Option.is_some !(Domain.DLS.get current_lane) then
    invalid_arg
      (Printf.sprintf
         "Engine.%s: only from setup or control-lane actions in parallel mode"
         what)

let spawn t ~name handler =
  require_quiescent t "spawn";
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

(* One copy of a packet on the wire, drawn from the source lane [sl]. Under
   [Sequential] every process shares the control lane, so the envelope goes
   straight into its queue; a [Parallel] lane buffers a delivery closure in
   its outbox for the barrier merge. Top-level: no closure per packet. *)
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
  if sl == t.control then push_packet (queue t sl) recv_at env
  else begin
    let seq = sl.oseq in
    sl.oseq <- seq + 1;
    sl.outbox <-
      { out_time = recv_at; out_src = src; out_seq = seq; out_dst = dst;
        out_owner = -1; out_action = (fun () -> deliver t env) }
      :: sl.outbox
  end

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
    schedule t ~target:t.lanes.(pid) ~owner:pid time action
  | None -> schedule t ~target:t.control ~owner:(-1) time action

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
    schedule t ~target:t.control ~owner:(-1)
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
  slot := Some lane;
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

let compare_pending a b =
  match Sim_time.compare a.out_time b.out_time with
  | 0 ->
    (match Int.compare a.out_src b.out_src with
     | 0 -> Int.compare a.out_seq b.out_seq
     | c -> c)
  | c -> c

(* Test hook: order the barrier merge by worker share before anything else —
   the domain-count-dependent ordering a merge keyed off scheduling state
   (instead of the (time, lane, seq) sort) would produce. Same-instant
   cross-lane arrivals then interleave differently per domain count, and the
   cross-domain fingerprint-identity tests must convict (identical at
   domains=1 where every share coincides, divergent at domains>1). *)
let chaos_merge_share_order = Atomic.make false

(* Exchange every outbox, globally sorted by (arrival, source lane,
   emission seq); destination queues assign their sequence numbers in that
   order, so FIFO tie-breaks at equal arrival times are domain-count
   independent. Runs single-threaded at barriers. *)
let merge_outboxes t ~domains ~barrier_clock =
  let pend = ref [] in
  let take lane =
    match lane.outbox with
    | [] -> ()
    | l ->
      lane.outbox <- [];
      pend := List.rev_append l !pend
  in
  take t.control;
  Array.iter take t.lanes;
  match !pend with
  | [] -> ()
  | all ->
    let all =
      if Atomic.get chaos_merge_share_order then
        List.sort
          (fun a b ->
            match
              Int.compare (a.out_src mod domains) (b.out_src mod domains)
            with
            | 0 -> compare_pending a b
            | c -> c)
          all
      else List.sort compare_pending all
    in
    List.iter
      (fun o ->
        let target = if o.out_dst < 0 then t.control else t.lanes.(o.out_dst) in
        let time =
          (* message arrivals are >= the barrier by the lookahead argument;
             only cross-lane timers can ask for an already-processed window *)
          if o.out_time < barrier_clock then barrier_clock else o.out_time
        in
        push_timer (queue t target) time ~owner:o.out_owner o.out_action)
      all

let process_share t ~domains ~bound ~me =
  let lanes = t.lanes in
  let n = Array.length lanes in
  let i = ref me in
  while !i < n do
    process_lane t lanes.(!i) ~bound ~stop:max_int;
    i := !i + domains
  done

let next_event_time t =
  let earliest best q =
    match best with
    | Some b when q.size = 0 || b <= q.time.(0) -> best
    | Some _ | None -> if q.size = 0 then best else Some q.time.(0)
  in
  Array.fold_left earliest None t.queues

let total_steps t =
  Array.fold_left (fun acc l -> acc + l.steps) t.control.steps t.lanes

let run_parallel ?until t ~domains =
  if Net.processing_time t.net <> Sim_time.zero then
    invalid_arg "Engine.run: parallel mode needs Net.processing_time = 0";
  let w = Sim_time.to_us (Net.min_latency t.net) in
  if w <= 0 then
    invalid_arg "Engine.run: parallel mode needs a positive latency floor";
  let base_steps = total_steps t in
  (* sends and timers issued during setup (or a previous run) wait in
     outboxes; seed the queues before looking for the first epoch *)
  merge_outboxes t ~domains ~barrier_clock:t.clock;
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
        match next_event_time t with
        | None -> continue := false
        | Some next_time ->
          (match until with
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
             merge_outboxes t ~domains ~barrier_clock:bound;
             if total_steps t - base_steps > max_events then runaway ())
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
