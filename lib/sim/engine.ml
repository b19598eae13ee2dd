type pid = int

type impl = Sequential | Parallel of { domains : int }

type 'msg envelope = {
  src : pid;
  dst : pid;
  sent_at : Sim_time.t;
  recv_at : Sim_time.t;
  payload : 'msg;
}

type event = { time : Sim_time.t; seq : int; action : unit -> unit }

type 'msg process = {
  proc_name : string;
  mutable handler : pid -> 'msg envelope -> unit;
  mutable alive : bool;
  mutable busy_until : Sim_time.t;
      (* receiver-side processing queue (Net.processing_time) *)
}

(* ------------------------------------------------------------------------- *)
(* Parallel-mode state.

   One {e lane} per process: its own event heap, sequence counter and rng
   stream, so a process's schedule evolves identically no matter which
   domain hosts it. Lanes interact only through messages, and every
   message delay is at least the network's latency floor [W], so events in
   the window [kW, (k+1)W) of different lanes are causally independent: a
   send at time s arrives at s + delay >= (k+1)W. Each epoch the lanes run
   concurrently (domain d owns the lanes with pid mod domains = d), then a
   barrier exchanges the cross-lane sends buffered in per-lane outboxes in
   (arrival time, source lane, emission seq) order, assigning destination
   sequence numbers in that merged order — the delivery schedule is a pure
   function of the seed, independent of the domain count.

   The control lane (pid -1) carries ownerless timers and crash-observer
   notifications — actions that may touch many processes. It drains
   single-threaded at the start of each epoch, before the worker phase. *)

type pending = {
  out_time : Sim_time.t;
  out_src : int;  (* source lane (-1 = control): merge key, major *)
  out_seq : int;  (* per-source emission counter: merge key, minor *)
  out_dst : int;
  out_timer : bool;  (* timers clamp to the barrier clock; sends never need to *)
  out_action : unit -> unit;
}

type lane = {
  lane_pid : int;
  lheap : event Heap.t;
  lrng : Rng.t;
  mutable lclock : Sim_time.t;
  mutable lseq : int;
  mutable lsent : int;
  mutable ldelivered : int;
  mutable ldropped : int;
  mutable outbox : pending list;  (* reversed; drained at each barrier *)
  mutable oseq : int;
  mutable steps : int;  (* events processed (event-budget accounting) *)
}

type par = {
  domains : int;
  mutable lanes : lane array;  (* index = pid, grown by spawn *)
  control : lane;
  mutable in_parallel_phase : bool;
      (* workers running: cross-lane scheduling must go through outboxes *)
}

(* Which lane the executing domain is currently advancing; [None] outside
   lane processing (setup code, barriers). Domain-local by construction:
   each domain only ever writes its own slot. *)
let current_lane : lane option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

type 'msg t = {
  rng : Rng.t;
  net : Net.t;
  trace : Trace.t option;  (* [Some] iff created with [pp_msg] *)
  pp_msg : Format.formatter -> 'msg -> unit;  (* called only with a trace *)
  events : event Heap.t;
  mutable clock : Sim_time.t;
  mutable next_seq : int;
  mutable processes : 'msg process array;
  mutable nprocs : int;
  mutable failure_observers : (pid -> unit) list;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  par : par option;  (* [Some] iff created with [Parallel _] *)
}

let compare_event a b =
  match Sim_time.compare a.time b.time with
  | 0 -> Int.compare a.seq b.seq
  | c -> c

let make_lane pid rng =
  { lane_pid = pid; lheap = Heap.create ~cmp:compare_event; lrng = rng;
    lclock = Sim_time.zero; lseq = 0; lsent = 0; ldelivered = 0;
    ldropped = 0; outbox = []; oseq = 0; steps = 0 }

let create ?(impl = Sequential) ?(seed = 42L) ?(net = Net.create ()) ?pp_msg () =
  let rng = Rng.create seed in
  let par =
    match impl with
    | Sequential -> None
    | Parallel { domains } ->
      if domains < 1 then invalid_arg "Engine.create: domains must be >= 1";
      Some
        { domains; lanes = [||]; control = make_lane (-1) (Rng.split rng);
          in_parallel_phase = false }
  in
  let trace, pp_msg =
    match pp_msg with
    | Some pp -> (Some (Trace.create ()), pp)
    | None -> (None, fun _ _ -> ())
  in
  { rng; net; trace; pp_msg;
    events = Heap.create ~cmp:compare_event; clock = Sim_time.zero;
    next_seq = 0; processes = [||]; nprocs = 0; failure_observers = [];
    sent = 0; delivered = 0; dropped = 0; par }

let impl t =
  match t.par with
  | None -> Sequential
  | Some p -> Parallel { domains = p.domains }

let rng t = t.rng
let trace t = t.trace

let now t =
  match t.par with
  | None -> t.clock
  | Some _ ->
    (match !(Domain.DLS.get current_lane) with
     | Some lane -> lane.lclock
     | None -> t.clock)

let schedule t time action =
  let time = if Sim_time.compare time t.clock < 0 then t.clock else time in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Heap.push t.events { time; seq; action }

let push_lane lane time action =
  let seq = lane.lseq in
  lane.lseq <- seq + 1;
  Heap.push lane.lheap { time; seq; action }

(* Schedule onto [target]'s lane. Same-lane pushes and pushes from the
   single-threaded contexts (setup, control drain, barriers) go straight
   into the heap; a worker scheduling across lanes buffers the entry in
   its own outbox so the barrier merge orders it deterministically. *)
let par_schedule t p ~(target : lane) time action =
  match !(Domain.DLS.get current_lane) with
  | Some lane when lane == target ->
    let time =
      if Sim_time.compare time lane.lclock < 0 then lane.lclock else time
    in
    push_lane target time action
  | Some lane ->
    if p.in_parallel_phase then begin
      let seq = lane.oseq in
      lane.oseq <- seq + 1;
      lane.outbox <-
        { out_time = time; out_src = lane.lane_pid; out_seq = seq;
          out_dst = target.lane_pid; out_timer = true; out_action = action }
        :: lane.outbox
    end
    else begin
      let time =
        if Sim_time.compare time lane.lclock < 0 then lane.lclock else time
      in
      push_lane target time action
    end
  | None ->
    let time = if Sim_time.compare time t.clock < 0 then t.clock else time in
    push_lane target time action

let require_quiescent p what =
  if p.in_parallel_phase
     && !(Domain.DLS.get current_lane) <> None
  then
    invalid_arg
      (Printf.sprintf
         "Engine.%s: only from setup or control-lane actions in parallel mode"
         what)

let spawn t ~name handler =
  let p = { proc_name = name; handler; alive = true; busy_until = Sim_time.zero } in
  (match t.par with
   | Some par -> require_quiescent par "spawn"
   | None -> ());
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
  (match t.par with
   | Some par ->
     (* one rng split per spawn, in pid order: the per-lane streams are a
        function of the seed alone, not of the domain count *)
     let lane = make_lane pid (Rng.split t.rng) in
     let lanes = Array.make (pid + 1) lane in
     Array.blit par.lanes 0 lanes 0 pid;
     par.lanes <- lanes
   | None -> ());
  pid

let proc t pid =
  if pid < 0 || pid >= t.nprocs then invalid_arg "Engine: unknown pid";
  t.processes.(pid)

let set_handler t pid handler = (proc t pid).handler <- handler
let name t pid = (proc t pid).proc_name
let is_alive t pid = (proc t pid).alive

let trace_msg t pid kind msg =
  match t.trace with
  | Some trace ->
    Trace.record trace t.clock ~pid kind (Format.asprintf "%a" t.pp_msg msg)
  | None -> ()

let trace_mark t pid label =
  match t.trace with
  | Some trace -> Trace.record trace (now t) ~pid Trace.Mark label
  | None -> ()

let deliver t env =
  let p = proc t env.dst in
  if p.alive && not (Net.blocked t.net ~src:env.src ~dst:env.dst) then begin
    t.delivered <- t.delivered + 1;
    trace_msg t env.dst Trace.Recv env.payload;
    p.handler env.dst env
  end
  else t.dropped <- t.dropped + 1

(* top-level rather than a closure inside [seq_send]: no closure block per
   packet *)
let schedule_delivery t ~src ~dst payload =
  let delay = Net.sample_delay t.net t.rng in
  let arrival = Sim_time.add t.clock delay in
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
  let env = { src; dst; sent_at = t.clock; recv_at; payload } in
  schedule t recv_at (fun () -> deliver t env)

let seq_send t ~src ~dst payload =
  if (proc t src).alive then begin
    t.sent <- t.sent + 1;
    trace_msg t src Trace.Send payload;
    if Net.blocked t.net ~src ~dst || Net.drops t.net t.rng then
      t.dropped <- t.dropped + 1
    else begin
      schedule_delivery t ~src ~dst payload;
      if Net.duplicates t.net t.rng then schedule_delivery t ~src ~dst payload
    end
  end

let par_deliver t p env =
  let dl = p.lanes.(env.dst) in
  let pr = proc t env.dst in
  if pr.alive && not (Net.blocked t.net ~src:env.src ~dst:env.dst) then begin
    dl.ldelivered <- dl.ldelivered + 1;
    pr.handler env.dst env
  end
  else dl.ldropped <- dl.ldropped + 1

(* Randomness, counters and the outbox all belong to the {e source} lane
   even when the send executes on the control lane (a crash observer
   triggering protocol sends): per-source attribution is what keeps the
   sampled delays a function of the seed alone. *)
let par_send t p ~src ~dst payload =
  if (proc t src).alive then begin
    let sl = p.lanes.(src) in
    sl.lsent <- sl.lsent + 1;
    if Net.blocked t.net ~src ~dst || Net.drops t.net sl.lrng then
      sl.ldropped <- sl.ldropped + 1
    else begin
      let sent_at = now t in
      let send_one () =
        let delay = Net.sample_delay t.net sl.lrng in
        let recv_at = Sim_time.add sent_at delay in
        let env = { src; dst; sent_at; recv_at; payload } in
        let seq = sl.oseq in
        sl.oseq <- seq + 1;
        sl.outbox <-
          { out_time = recv_at; out_src = src; out_seq = seq; out_dst = dst;
            out_timer = false; out_action = (fun () -> par_deliver t p env) }
          :: sl.outbox
      in
      send_one ();
      if Net.duplicates t.net sl.lrng then send_one ()
    end
  end

let send t ~src ~dst payload =
  match t.par with
  | None -> seq_send t ~src ~dst payload
  | Some p -> par_send t p ~src ~dst payload

let target_lane t p owner =
  match owner with
  | Some pid ->
    ignore (proc t pid);
    p.lanes.(pid)
  | None -> p.control

let at t ?owner time action =
  let guarded () =
    match owner with
    | Some pid when not (proc t pid).alive -> ()
    | Some _ | None -> action ()
  in
  match t.par with
  | None -> schedule t time guarded
  | Some p -> par_schedule t p ~target:(target_lane t p owner) time guarded

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
  (match t.par with
   | Some par -> require_quiescent par "crash"
   | None -> ());
  if p.alive then begin
    p.alive <- false;
    trace_mark t pid "CRASH";
    let observers = t.failure_observers in
    let fire () = List.iter (fun observe -> observe pid) observers in
    let time = Sim_time.add (now t) (Net.detection_delay t.net) in
    match t.par with
    | None -> schedule t time fire
    | Some par -> par_schedule t par ~target:par.control time fire
  end

let recover t pid =
  let p = proc t pid in
  (match t.par with
   | Some par -> require_quiescent par "recover"
   | None -> ());
  if not p.alive then begin
    p.alive <- true;
    trace_mark t pid "RECOVER"
  end

(* the runaway guard, per [run] call *)
let max_events = 50_000_000

(* The hot loop: peek/pop without option boxing — this loop runs once per
   simulated event, and the option cells otherwise dominate its minor-heap
   allocation. *)
let run_sequential ?until t =
  let budget = ref max_events in
  let continue = ref true in
  while !continue && !budget > 0 do
    if Heap.is_empty t.events then continue := false
    else begin
      let next = Heap.peek_exn t.events in
      match until with
      | Some limit when Sim_time.compare next.time limit > 0 ->
        t.clock <- limit;
        continue := false
      | Some _ | None ->
        let event = Heap.pop_exn t.events in
        t.clock <- event.time;
        event.action ();
        decr budget
    end
  done;
  if !budget = 0 then failwith "Engine.run: event budget exhausted (runaway?)"

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
   emission seq); destination heaps assign their sequence numbers in that
   order, so FIFO tie-breaks at equal arrival times are domain-count
   independent. Runs single-threaded at barriers. *)
let merge_outboxes p ~barrier_clock =
  let pend = ref [] in
  let take lane =
    match lane.outbox with
    | [] -> ()
    | l ->
      lane.outbox <- [];
      pend := List.rev_append l !pend
  in
  take p.control;
  Array.iter take p.lanes;
  match !pend with
  | [] -> ()
  | all ->
    let all =
      if Atomic.get chaos_merge_share_order then
        List.sort
          (fun a b ->
            match
              Int.compare (a.out_src mod p.domains) (b.out_src mod p.domains)
            with
            | 0 -> compare_pending a b
            | c -> c)
          all
      else List.sort compare_pending all
    in
    List.iter
      (fun o ->
        let target = if o.out_dst < 0 then p.control else p.lanes.(o.out_dst) in
        let time =
          (* message arrivals are >= the barrier by the lookahead argument;
             only cross-lane timers can ask for an already-processed window *)
          if o.out_timer && Sim_time.compare o.out_time barrier_clock < 0 then
            barrier_clock
          else o.out_time
        in
        push_lane target time o.out_action)
      all

let process_lane lane ~bound =
  let r = Domain.DLS.get current_lane in
  r := Some lane;
  let continue = ref true in
  while !continue do
    if Heap.is_empty lane.lheap then continue := false
    else begin
      let next = Heap.peek_exn lane.lheap in
      if Sim_time.compare next.time bound >= 0 then continue := false
      else begin
        let event = Heap.pop_exn lane.lheap in
        lane.lclock <- event.time;
        event.action ();
        lane.steps <- lane.steps + 1
      end
    end
  done;
  r := None

let process_share p ~bound ~me =
  let lanes = p.lanes in
  let n = Array.length lanes in
  let i = ref me in
  while !i < n do
    process_lane lanes.(!i) ~bound;
    i := !i + p.domains
  done

let next_event_time p =
  let best = ref None in
  let consider lane =
    match Heap.peek lane.lheap with
    | None -> ()
    | Some e ->
      (match !best with
       | Some b when Sim_time.compare b e.time <= 0 -> ()
       | Some _ | None -> best := Some e.time)
  in
  consider p.control;
  Array.iter consider p.lanes;
  !best

let total_steps p =
  Array.fold_left (fun acc l -> acc + l.steps) p.control.steps p.lanes

let run_parallel ?until t p =
  if Net.processing_time t.net <> Sim_time.zero then
    invalid_arg "Engine.run: parallel mode needs Net.processing_time = 0";
  if Option.is_some t.trace then
    invalid_arg "Engine.run: parallel mode does not support pp_msg tracing";
  let w = Sim_time.to_us (Net.min_latency t.net) in
  if w <= 0 then
    invalid_arg "Engine.run: parallel mode needs a positive latency floor";
  let base_steps = total_steps p in
  (* sends and timers issued during setup (or a previous run) wait in
     outboxes; seed the heaps before looking for the first epoch *)
  merge_outboxes p ~barrier_clock:t.clock;
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
        (try process_share p ~bound ~me:id
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
  let domains =
    Array.init (p.domains - 1) (fun i -> Domain.spawn (worker (i + 1)))
  in
  let release_and_join () =
    Mutex.lock mutex;
    stop := true;
    Condition.broadcast cond;
    Mutex.unlock mutex;
    Array.iter Domain.join domains
  in
  Fun.protect ~finally:release_and_join (fun () ->
      let continue = ref true in
      while !continue do
        match next_event_time p with
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
               | Some limit -> min epoch_end (Sim_time.add limit (Sim_time.us 1))
               | None -> epoch_end
             in
             (* 1. control drain: single-threaded, may touch any lane *)
             process_lane p.control ~bound;
             (* 2. worker phase: each domain advances its own lanes *)
             p.in_parallel_phase <- true;
             if p.domains > 1 then begin
               Mutex.lock mutex;
               cur_bound := bound;
               done_count := 0;
               incr generation;
               Condition.broadcast cond;
               Mutex.unlock mutex
             end;
             process_share p ~bound ~me:0;
             if p.domains > 1 then begin
               Mutex.lock mutex;
               while !done_count < p.domains - 1 do
                 Condition.wait cond mutex
               done;
               Mutex.unlock mutex
             end;
             p.in_parallel_phase <- false;
             (match !worker_error with
              | Some exn -> raise exn
              | None -> ());
             (* 3. barrier: exchange cross-lane traffic, advance the clock *)
             t.clock <-
               (match until with
                | Some limit -> min epoch_end limit
                | None -> epoch_end);
             merge_outboxes p ~barrier_clock:bound;
             if total_steps p - base_steps > max_events then
               failwith "Engine.run: event budget exhausted (runaway?)")
      done)

let run ?until t =
  match t.par with
  | None -> run_sequential ?until t
  | Some p -> run_parallel ?until t p

let messages_sent t =
  match t.par with
  | None -> t.sent
  | Some p -> Array.fold_left (fun acc l -> acc + l.lsent) 0 p.lanes

let messages_delivered t =
  match t.par with
  | None -> t.delivered
  | Some p -> Array.fold_left (fun acc l -> acc + l.ldelivered) 0 p.lanes

let messages_dropped t =
  match t.par with
  | None -> t.dropped
  | Some p -> Array.fold_left (fun acc l -> acc + l.ldropped) 0 p.lanes
