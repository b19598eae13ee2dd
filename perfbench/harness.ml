(* One pass of a workload: set up the group, drive the generated sends and
   faults through [Engine.run], record every delivery from the outside
   (the [deliver] callbacks), then check the recorded order and reduce it
   to metrics.

   Three instrumentation levels share this code so that their delivery
   fingerprints can be compared:
   - plain: nothing but the delivery recording (host metrics come from here);
   - metrics: [Config.metrics] on, so the protocol's own registry counters
     are readable;
   - traced: metrics plus an obs [Log], spans around every call into the
     stack, the codec and the callbacks, and a 1ms occupancy sampler. *)

module Config = Repro_catocs.Config
module Stack = Repro_catocs.Stack
module Endpoint = Repro_catocs.Endpoint
module Group = Repro_catocs.Group
module Wire = Repro_catocs.Wire
module Wire_codec = Repro_catocs.Wire_codec
module Transport = Repro_catocs.Transport
module Metrics = Repro_catocs.Metrics
module Pc_causal = Repro_catocs.Pc_causal
module Registry = Repro_obs.Registry
module Log = Repro_obs.Log
module Event = Repro_obs.Event

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Growable int vector. Its storage is a Bigarray, outside the OCaml heap,
   so the benchmark's recording tables do not count in the program's
   [peak_heap_mb]. Recording vectors are presized so that the hot path
   never grows them in a fault-free run. *)
module Ivec = struct
  module A = Bigarray.Array1

  type t = {
    mutable a : (int, Bigarray.int_elt, Bigarray.c_layout) A.t;
    mutable len : int;
  }

  let create cap = { a = A.create Bigarray.int Bigarray.c_layout (max cap 16); len = 0 }

  let push v x =
    if v.len = A.dim v.a then begin
      let b = A.create Bigarray.int Bigarray.c_layout (2 * v.len) in
      A.blit v.a (A.sub b 0 v.len);
      v.a <- b
    end;
    A.unsafe_set v.a v.len x;
    v.len <- v.len + 1

  let get v i =
    if i >= v.len then invalid_arg "Ivec.get";
    A.get v.a i

  let set v i x =
    if i >= v.len then invalid_arg "Ivec.set";
    A.set v.a i x

  let length v = v.len
  let to_array v = Array.init v.len (A.get v.a)
end

(* --- spans ------------------------------------------------------------- *)

type span_kind = Create | Join | Multicast | Deliver | Encode | Decode | Run

let span_kinds = [| Create; Join; Multicast; Deliver; Encode; Decode; Run |]

let span_code = function
  | Create -> 0 | Join -> 1 | Multicast -> 2 | Deliver -> 3 | Encode -> 4
  | Decode -> 5 | Run -> 6

let span_name = function
  | Create -> "stack_create" | Join -> "stack_join"
  | Multicast -> "stack_multicast" | Deliver -> "deliver_callback"
  | Encode -> "wire_codec_encode" | Decode -> "wire_codec_decode"
  | Run -> "engine_run"

(* Spans are kept in memory and written out after the run. [id] is the
   multicast id (the int payload) where one applies, else -1; [aux] is the
   receiving slot for deliveries, the frame length for codec spans, the
   minor words allocated for multicasts, the slice number for engine runs
   and 0 for the rest; [parent] is the enclosing multicast span or -1 (the
   engine loop). *)
module Spans = struct
  type t = {
    kind : Ivec.t;
    id : Ivec.t;
    aux : Ivec.t;
    t0 : Ivec.t;
    t1 : Ivec.t;
    parent : Ivec.t;
    mutable open_multicast : int;
    mutable nested_ns : int;  (* deliver/codec time inside multicast spans *)
    totals : int array;  (* ns per span kind *)
    counts : int array;
  }

  let create cap =
    { kind = Ivec.create cap; id = Ivec.create cap; aux = Ivec.create cap;
      t0 = Ivec.create cap; t1 = Ivec.create cap; parent = Ivec.create cap;
      open_multicast = -1; nested_ns = 0;
      totals = Array.make (Array.length span_kinds) 0;
      counts = Array.make (Array.length span_kinds) 0 }

  let add t kind ~id ~aux ~t0 ~t1 =
    let code = span_code kind in
    Ivec.push t.kind code;
    Ivec.push t.id id;
    Ivec.push t.aux aux;
    Ivec.push t.t0 t0;
    Ivec.push t.t1 t1;
    Ivec.push t.parent t.open_multicast;
    t.totals.(code) <- t.totals.(code) + (t1 - t0);
    t.counts.(code) <- t.counts.(code) + 1;
    if t.open_multicast >= 0 then t.nested_ns <- t.nested_ns + (t1 - t0)

  let total t kind = t.totals.(span_code kind)
  let count t kind = t.counts.(span_code kind)

  let write t path =
    let oc = open_out path in
    output_string oc "index\tspan\tid\taux\tstart_ns\tend_ns\tparent\n";
    for i = 0 to Ivec.length t.kind - 1 do
      Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\t%d\n" i
        (span_name span_kinds.(Ivec.get t.kind i))
        (Ivec.get t.id i) (Ivec.get t.aux i) (Ivec.get t.t0 i)
        (Ivec.get t.t1 i) (Ivec.get t.parent i)
    done;
    close_out oc
end

(* --- the group under test ----------------------------------------------- *)

type level = Plain | With_metrics | Traced

type recorder = { d_ids : Ivec.t; d_times : Ivec.t; d_views : Ivec.t }

type slot = {
  index : int;
  pid : Engine.pid;
  rec_ : recorder;
  endpoint : int Endpoint.t;
  ep_registry : Registry.t;  (* the endpoint's transport counters *)
  mutable stack : int Stack.t option;
  mutable crashed_at : Sim_time.t;  (* -1 while alive *)
  mutable sent : int;
}

type env = {
  w : Workload.t;
  level : level;
  config : Config.t;
  engine : int Wire.t Transport.packet Engine.t;
  shared : Stack.shared;
  log : Log.t option;
  spans : Spans.t option;
  mutable slots : slot array;
  slot_of_pid : (Engine.pid, slot) Hashtbl.t;
  views : (int, Engine.pid array) Hashtbl.t;
  (* the multicast table, indexed by multicast id (= the int payload) *)
  mc_sender : Ivec.t;
  mc_seq : Ivec.t;
  mc_sched : Ivec.t;  (* scheduled send instant *)
  mc_pos : Ivec.t;  (* sender's delivery count when it multicast *)
  mutable crash_times : Sim_time.t list;
  mutable data_frame_bytes : int;  (* Encoded data frames, instrumented passes *)
  mutable spare_recorders : recorder list;
  (* traced-run occupancy samples *)
  mutable peak_blocked : int;
  mutable blocked_sum : int;
  mutable blocked_samples : int;
  mutable inflight_sum : int;
  mutable inflight_samples : int;
}

let recorder cap =
  { d_ids = Ivec.create cap; d_times = Ivec.create cap; d_views = Ivec.create cap }

let record env slot id =
  let r = slot.rec_ in
  Ivec.push r.d_ids id;
  Ivec.push r.d_times (Engine.now env.engine);
  Ivec.push r.d_views
    (match slot.stack with
     | Some st -> (Stack.view st).Group.view_id
     | None -> -1)

let callbacks env slot =
  let deliver =
    match env.spans with
    | None -> fun ~sender:_ id -> record env slot id
    | Some sp ->
      fun ~sender:_ id ->
        let t0 = now_ns () in
        record env slot id;
        let t1 = now_ns () in
        Spans.add sp Deliver ~id ~aux:slot.index ~t0 ~t1
  in
  { Stack.null_callbacks with
    Stack.deliver;
    view_change =
      (fun v -> Hashtbl.replace env.views v.Group.view_id v.Group.members) }

(* The Encoded wire path: the benchmark builds each endpoint's framing
   itself. Instrumented passes count the bytes of data frames (the scope of
   [wire_bytes_per_delivery]); the traced pass also times every encode and
   decode. *)
let framing env =
  let codec = Wire_codec.create Wire_codec.int_payload in
  let encode = Wire_codec.encode codec and decode = Wire_codec.decode codec in
  let id_of = function
    | Wire.Proto (_, Wire.Data d) -> d.Wire.payload
    | Wire.Proto _ | Wire.Direct _ -> -1
  in
  let count_data w f =
    if id_of w >= 0 then env.data_frame_bytes <- env.data_frame_bytes + String.length f
  in
  match (env.level, env.spans) with
  | Plain, _ -> { Transport.frame = encode; unframe = decode }
  | (With_metrics | Traced), None ->
    { Transport.frame =
        (fun w ->
          let f = encode w in
          count_data w f;
          f);
      unframe = decode }
  | (With_metrics | Traced), Some sp ->
    { Transport.frame =
        (fun w ->
          let t0 = now_ns () in
          let f = encode w in
          let t1 = now_ns () in
          Spans.add sp Encode ~id:(id_of w) ~aux:(String.length f) ~t0 ~t1;
          count_data w f;
          f);
      unframe =
        (fun f ->
          let t0 = now_ns () in
          let w = decode f in
          let t1 = now_ns () in
          Spans.add sp Decode ~id:(id_of w) ~aux:(String.length f) ~t0 ~t1;
          w) }

let payload_codec env =
  match env.config.Config.wire_format with
  | Config.Encoded -> Some Wire_codec.int_payload
  | Config.Structural -> None

let new_slot env ~pid ~rec_ =
  let ep_registry =
    Registry.create ~enabled:env.config.Config.metrics ()
  in
  let framing =
    match env.config.Config.wire_format with
    | Config.Encoded -> Some (framing env)
    | Config.Structural -> None
  in
  let endpoint =
    Endpoint.create ?obs:env.log ~registry:ep_registry ?framing
      ~engine:env.engine ~self:pid ~mode:env.config.Config.transport ()
  in
  let slot =
    { index = Array.length env.slots; pid; rec_; endpoint; ep_registry;
      stack = None; crashed_at = -1; sent = 0 }
  in
  env.slots <- Array.append env.slots [| slot |];
  Hashtbl.replace env.slot_of_pid pid slot;
  slot

let timed env kind ~id f =
  match env.spans with
  | None -> f ()
  | Some sp ->
    let t0 = now_ns () in
    let x = f () in
    let t1 = now_ns () in
    Spans.add sp kind ~id ~aux:0 ~t0 ~t1;
    x

let multicast env slot =
  match slot.stack with
  | None -> ()
  | Some st ->
    let id = Ivec.length env.mc_sender in
    Ivec.push env.mc_sender slot.index;
    Ivec.push env.mc_seq slot.sent;
    Ivec.push env.mc_sched (Engine.now env.engine);
    Ivec.push env.mc_pos (Ivec.length slot.rec_.d_ids);
    slot.sent <- slot.sent + 1;
    (match env.spans with
     | None -> Stack.multicast st id
     | Some sp ->
       (* the span is pushed first so nested deliver/codec spans can name
          it as their parent; its end and allocation are filled in after *)
       let t0 = now_ns () in
       Spans.add sp Multicast ~id ~aux:0 ~t0 ~t1:t0;
       let index = Ivec.length sp.Spans.kind - 1 in
       sp.Spans.open_multicast <- index;
       let w0 = Gc.minor_words () in
       Stack.multicast st id;
       let w1 = Gc.minor_words () in
       let t1 = now_ns () in
       sp.Spans.open_multicast <- -1;
       Ivec.set sp.Spans.t1 index t1;
       Ivec.set sp.Spans.aux index (int_of_float (w1 -. w0));
       let code = span_code Multicast in
       sp.Spans.totals.(code) <- sp.Spans.totals.(code) + (t1 - t0))

let start_sending env slot ~start =
  let cancel =
    Engine.every env.engine ~owner:slot.pid ~start ~period:env.w.Workload.send_period
      (fun () -> multicast env slot)
  in
  Engine.at env.engine env.w.Workload.send_until cancel

let live_installed env =
  Array.to_list env.slots
  |> List.filter_map (fun s ->
         match s.stack with
         | Some st
           when s.crashed_at < 0
                && (not (Stack.is_ejected st))
                && (Stack.view st).Group.view_id >= 0 ->
           Some (s, st)
         | Some _ | None -> None)

(* the newest view any live member has installed *)
let current_view env =
  List.fold_left
    (fun acc (_, st) ->
      let v = Stack.view st in
      match acc with
      | Some (best : Group.view) when best.Group.view_id >= v.Group.view_id -> acc
      | Some _ | None -> Some v)
    None (live_installed env)

let crash_rank env rank =
  match current_view env with
  | None -> ()
  | Some view ->
    let pid = Group.member view (rank mod Group.size view) in
    (match Hashtbl.find_opt env.slot_of_pid pid with
     | Some slot when slot.crashed_at < 0 ->
       slot.crashed_at <- Engine.now env.engine;
       env.crash_times <- Engine.now env.engine :: env.crash_times;
       Engine.crash env.engine pid
     | Some _ | None -> ())

let take_recorder env =
  match env.spare_recorders with
  | r :: rest -> env.spare_recorders <- rest; r
  | [] -> recorder (Workload.planned_multicasts env.w)

let join env =
  match live_installed env with
  | [] -> ()
  | (contact, _) :: _ ->
    let k = Array.length env.slots - env.w.Workload.n in
    let pid =
      Engine.spawn env.engine ~name:(Printf.sprintf "j%d" k) (fun _ _ -> ())
    in
    let slot = new_slot env ~pid ~rec_:(take_recorder env) in
    let stack =
      timed env Join ~id:slot.index (fun () ->
          Stack.join ~endpoint:slot.endpoint ?payload_codec:(payload_codec env)
            ~engine:env.engine ~shared:env.shared ~config:env.config ~self:pid
            ~contact:contact.pid ~callbacks:(callbacks env slot) ())
    in
    slot.stack <- Some stack;
    start_sending env slot
      ~start:
        (Sim_time.add (Engine.now env.engine)
           env.w.Workload.phases.(slot.index mod env.w.Workload.n))

(* Recording arrays for the initial members and the joiners, allocated
   before the timed set-up so that [setup_s] measures only the program. *)
let recorders (w : Workload.t) =
  let cap = Workload.planned_multicasts w + 64 in
  Array.init (w.Workload.n + List.length w.Workload.faults) (fun _ ->
      recorder cap)

(* Set-up: the engine, the network and every member stack in its first
   view. Returns the environment and the set-up wall time in ns, which
   leaves out the benchmark's own recording structures. *)
let setup (w : Workload.t) level recs =
  let config =
    { w.Workload.config with
      Config.metrics = (match level with Plain -> false | With_metrics | Traced -> true) }
  in
  let log =
    match level with
    | Traced -> Some (Log.create ~cap:(1 lsl 24) ())
    | Plain | With_metrics -> None
  in
  let spans =
    match level with
    | Traced ->
      (* one deliver span per delivery, plus an encode and a decode span
         per packet (about 1.65 per delivery) on the Encoded wire *)
      let per_delivery =
        match w.Workload.config.Config.wire_format with
        | Config.Encoded -> 5
        | Config.Structural -> 2
      in
      Some (Spans.create (Workload.planned_multicasts w * w.Workload.n * per_delivery))
    | Plain | With_metrics -> None
  in
  let cap = Workload.planned_multicasts w + 64 in
  let mc_sender = Ivec.create cap and mc_seq = Ivec.create cap in
  let mc_sched = Ivec.create cap and mc_pos = Ivec.create cap in
  let slot_of_pid = Hashtbl.create 64 and views = Hashtbl.create 16 in
  let t_start = now_ns () in
  let net =
    Net.create ~latency:w.Workload.latency
      ~drop_probability:w.Workload.drop_probability ()
  in
  let engine = Engine.create ~seed:w.Workload.engine_seed ~net () in
  let shared = Stack.make_shared ~group_id:1 ?obs:log config in
  let env =
    { w; level; config; engine; shared; log; spans; slots = [||];
      slot_of_pid; views; mc_sender; mc_seq; mc_sched; mc_pos;
      crash_times = []; data_frame_bytes = 0;
      spare_recorders = Array.to_list (Array.sub recs w.Workload.n (Array.length recs - w.Workload.n));
      peak_blocked = 0; blocked_sum = 0; blocked_samples = 0;
      inflight_sum = 0; inflight_samples = 0 }
  in
  let pids =
    List.init w.Workload.n (fun i ->
        Engine.spawn engine ~name:(Printf.sprintf "p%d" i) (fun _ _ -> ()))
  in
  let view = Group.make_view ~view_id:0 pids in
  Hashtbl.replace env.views 0 view.Group.members;
  List.iteri
    (fun i pid ->
      let slot = new_slot env ~pid ~rec_:recs.(i) in
      let stack =
        timed env Create ~id:slot.index (fun () ->
            Stack.create ~endpoint:slot.endpoint
              ?payload_codec:(payload_codec env) ~engine ~shared ~config ~view
              ~self:pid ~callbacks:(callbacks env slot) ())
      in
      slot.stack <- Some stack)
    pids;
  let t_end = now_ns () in
  (env, t_end - t_start)

(* Schedules the generated sends and faults (not part of set-up: the
   group is complete before the first of them fires). *)
let schedule env =
  let w = env.w in
  Array.iteri
    (fun i slot -> if i < w.Workload.n then start_sending env slot ~start:w.Workload.phases.(i))
    env.slots;
  List.iter
    (fun (f : Workload.fault) ->
      Engine.at env.engine f.Workload.crash_at (fun () ->
          crash_rank env f.Workload.victim_rank);
      Engine.at env.engine f.Workload.join_at (fun () -> join env))
    w.Workload.faults;
  match env.level with
  | Plain | With_metrics -> ()
  | Traced ->
    (* occupancy sampler: blocked messages per member, each member's
       gauges into the obs log (delivery-queue depth among them), and
       in-flight packets (the engine heap's message backlog). Reads only. *)
    let cancel =
      Engine.every env.engine ~period:(Sim_time.ms 1) (fun () ->
          List.iter
            (fun (_, st) ->
              let b = Stack.pending_count st in
              if b > env.peak_blocked then env.peak_blocked <- b;
              env.blocked_sum <- env.blocked_sum + b;
              env.blocked_samples <- env.blocked_samples + 1;
              Stack.record_gauges st)
            (live_installed env);
          let e = env.engine in
          env.inflight_sum <-
            env.inflight_sum + Engine.messages_sent e
            - Engine.messages_delivered e - Engine.messages_dropped e;
          env.inflight_samples <- env.inflight_samples + 1)
    in
    Engine.at env.engine w.Workload.run_until cancel

(* Host-speed reference. The machines this benchmark runs on change speed
   by +-15% over seconds to minutes (shared cores), which no number of
   passes averages out. So [Engine.run] advances in [slices] sim-time
   slices (slicing does not change the simulation), and after each slice a
   fixed kernel is timed; the slice's wall time is rescaled by the kernel's
   nominal time over its measured time. Set-up samples are rescaled the
   same way.

   The kernel must see the machine's speed but not the program: it
   allocates nothing, keeps its 32 KB of data in a Bigarray outside the
   OCaml heap, and sweeps that data into L1 before the timed call, so
   neither the preceding slice's cache footprint nor its heap reaches the
   timed call. Timed right after a slice and right after 2 ms of
   register-only work, its median times agree within 1% on every
   workload. *)
module Reference = struct
  (* one timed call on the machine the benchmark was written on *)
  let nominal_ns = 40_000
  let cells = 1 lsl 12
  let iters = 20_000

  let data =
    let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout cells in
    Bigarray.Array1.fill a 0;
    a

  (* random reads and writes, each depending on the last *)
  let call () =
    let s = ref 0 and state = ref 12345 in
    for _ = 1 to iters do
      state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
      let j = !state land (cells - 1) in
      s := !s + Bigarray.Array1.unsafe_get data j;
      Bigarray.Array1.unsafe_set data j (!s land 0xFFFF)
    done;
    ignore (Sys.opaque_identity !s)

  (* [ns] of wall time, rescaled to the nominal machine by a kernel call
     made right after it; allocates nothing *)
  let normalize ns =
    let warm = ref 0 in
    for j = 0 to cells - 1 do warm := !warm + Bigarray.Array1.unsafe_get data j done;
    ignore (Sys.opaque_identity !warm);
    let t0 = now_ns () in
    call ();
    ns * nominal_ns / (now_ns () - t0)
end

type run_times = {
  wall_ns : int;
  norm_s : float;  (* [wall_ns] at the nominal machine's speed *)
  alloc_words : float;  (* minor + direct-major words *)
  top_heap_words : int;  (* read before any checking allocates *)
}

let slices = 160

(* The loop between [Gc.counters] calls allocates nothing of its own, so
   the allocation figures are the program's. *)
let run env =
  let until = env.w.Workload.run_until in
  let wall = ref 0 and norm = ref 0 in
  let minor0, promoted0, major0 = Gc.counters () in
  for i = 1 to slices do
    let t0 = now_ns () in
    Engine.run ~until:(until * i / slices) env.engine;
    let t1 = now_ns () in
    wall := !wall + (t1 - t0);
    norm := !norm + Reference.normalize (t1 - t0);
    match env.spans with
    | Some sp -> Spans.add sp Run ~id:(-1) ~aux:i ~t0 ~t1
    | None -> ()
  done;
  let minor1, promoted1, major1 = Gc.counters () in
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  { wall_ns = !wall;
    norm_s = Float.of_int !norm /. 1e9;
    alloc_words = minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0);
    top_heap_words }

(* --- checking the recorded deliveries ----------------------------------- *)

exception Violation of string

let violation fmt = Printf.ksprintf (fun s -> raise (Violation s)) fmt

let survivors env =
  List.map fst (live_installed env) |> List.sort (fun a b -> compare a.index b.index)

(* Causal order (bss-dense, pc-encoded): a multicast depends on everything
   its sender had delivered when it called [Stack.multicast]; every
   receiver must have delivered all of those first, and each sender's
   multicasts in sequence. *)
let check_causal env =
  let ns = Array.length env.slots in
  let m = Ivec.length env.mc_sender in
  let deps = Array.make (m * ns) 0 in
  let by_sender = Array.make ns [] in
  for id = m - 1 downto 0 do
    let s = Ivec.get env.mc_sender id in
    by_sender.(s) <- id :: by_sender.(s)
  done;
  Array.iteri
    (fun s slot ->
      let v = Array.make ns 0 in
      let pending = ref by_sender.(s) in
      let snapshot upto =
        let rec go () =
          match !pending with
          | id :: rest when Ivec.get env.mc_pos id <= upto ->
            Array.blit v 0 deps (id * ns) ns;
            pending := rest;
            go ()
          | _ -> ()
        in
        go ()
      in
      let r = slot.rec_ in
      for i = 0 to Ivec.length r.d_ids - 1 do
        snapshot i;
        let id = Ivec.get r.d_ids i in
        let k = Ivec.get env.mc_sender id in
        v.(k) <- v.(k) + 1
      done;
      snapshot max_int)
    env.slots;
  Array.iter
    (fun slot ->
      let v = Array.make ns 0 in
      let r = slot.rec_ in
      for i = 0 to Ivec.length r.d_ids - 1 do
        let id = Ivec.get r.d_ids i in
        let k = Ivec.get env.mc_sender id in
        let seq = Ivec.get env.mc_seq id in
        if seq <> v.(k) then
          violation "FIFO: member %d delivered seq %d of sender %d, expected %d"
            slot.index seq k v.(k);
        for j = 0 to ns - 1 do
          if v.(j) < deps.((id * ns) + j) then
            violation
              "causal: member %d delivered multicast %d (sender %d) before \
               %d message(s) of sender %d it depends on"
              slot.index id k
              (deps.((id * ns) + j) - v.(j))
              j
        done;
        v.(k) <- seq + 1
      done)
    env.slots

(* Every workload: a member delivers each multicast at most once and each
   sender's multicasts in increasing sequence, and a multicast is delivered
   in the same view everywhere. Returns each member's delivery position of
   every multicast (-1 when not delivered) and each multicast's view. *)
let index_deliveries env =
  let m = Ivec.length env.mc_sender in
  let ns = Array.length env.slots in
  let pos = Array.map (fun _ -> Array.make m (-1)) env.slots in
  let view_of = Array.make m (-1) in
  Array.iter
    (fun slot ->
      let r = slot.rec_ in
      let last = Array.make ns (-1) in
      for i = 0 to Ivec.length r.d_ids - 1 do
        let id = Ivec.get r.d_ids i in
        if pos.(slot.index).(id) >= 0 then
          violation "duplicate: member %d delivered multicast %d twice" slot.index id;
        pos.(slot.index).(id) <- i;
        let k = Ivec.get env.mc_sender id in
        let seq = Ivec.get env.mc_seq id in
        if seq <= last.(k) then
          violation "FIFO: member %d delivered seq %d of sender %d after seq %d"
            slot.index seq k last.(k);
        last.(k) <- seq;
        let vid = Ivec.get r.d_views i in
        if view_of.(id) < 0 then view_of.(id) <- vid
        else if view_of.(id) <> vid then
          violation "view: multicast %d delivered in views %d and %d" id
            view_of.(id) vid
      done)
    env.slots;
  (pos, view_of)

(* Total order (abcast-faults): every two survivors deliver the multicasts
   they both deliver in the same order. *)
let check_agreement survivors pos =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if a.index < b.index then begin
            let prev = ref (-1) in
            let r = a.rec_ in
            for i = 0 to Ivec.length r.d_ids - 1 do
              let p = pos.(b.index).(Ivec.get r.d_ids i) in
              if p >= 0 then begin
                if p < !prev then
                  violation "total order: members %d and %d disagree at multicast %d"
                    a.index b.index (Ivec.get r.d_ids i);
                prev := p
              end
            done
          end)
        survivors)
    survivors

(* Required deliveries: each multicast of a member that never crashed, at
   every survivor that was in the view it was delivered in. Returns
   (attempted, missing). *)
let required env survivors ~pos ~view_of =
  let m = Ivec.length env.mc_sender in
  let attempted = ref 0 and missing = ref 0 in
  let members vid =
    match Hashtbl.find_opt env.views vid with
    | Some ms -> ms
    | None -> violation "view %d was delivered in but never installed" vid
  in
  for id = 0 to m - 1 do
    let sender = env.slots.(Ivec.get env.mc_sender id) in
    let in_view =
      if view_of.(id) >= 0 then
        let ms = members view_of.(id) in
        List.filter (fun s -> Array.mem s.pid ms) survivors
      else if sender.crashed_at >= 0 then []
      else
        (* delivered nowhere, not even at its live sender: a wedge; every
           survivor of the sender's current view misses it *)
        match sender.stack with
        | Some st ->
          let ms = (Stack.view st).Group.members in
          List.filter (fun s -> Array.mem s.pid ms) survivors
        | None -> []
    in
    let delivered s = pos.(s.index).(id) >= 0 in
    List.iter
      (fun s ->
        if delivered s && not (List.memq s in_view) then
          violation "multicast %d delivered at member %d outside its view" id s.index)
      survivors;
    if sender.crashed_at < 0 then begin
      attempted := !attempted + List.length in_view;
      missing :=
        !missing + List.length (List.filter (fun s -> not (delivered s)) in_view)
    end
    else begin
      let got = List.length (List.filter delivered in_view) in
      if got > 0 && got < List.length in_view then
        violation
          "all-or-none: multicast %d of crashed member %d reached %d of %d \
           survivors"
          id sender.index got (List.length in_view)
    end
  done;
  (!attempted, !missing)

(* --- results ------------------------------------------------------------ *)

type value = I of int | F of float | S of string

(* Percentile of samples quantized to whole microseconds, interpolated
   within the 1us class of the order statistic: a sample reading [v] stands
   for [v - 0.5, v + 0.5), and the q-th rank falls proportionally far into
   the run of samples equal to [v] (the grouped-data quantile). Without it
   a latency whose tail sits on the network's delay cap reads the same
   whole microsecond on every seed. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else begin
    let rank = Float.of_int n *. q in
    let i = min (n - 1) (int_of_float rank) in
    let v = sorted.(i) in
    let lo = ref i and hi = ref i in
    while !lo > 0 && sorted.(!lo - 1) = v do decr lo done;
    while !hi < n - 1 && sorted.(!hi + 1) = v do incr hi done;
    Float.of_int v -. 0.5
    +. Float.min 1. ((rank -. Float.of_int !lo) /. Float.of_int (!hi - !lo + 1))
  end

let fingerprint env =
  let b = Buffer.create (1 lsl 20) in
  Array.iter
    (fun slot ->
      let r = slot.rec_ in
      Buffer.add_int64_le b (Int64.of_int slot.pid);
      Buffer.add_int64_le b (Int64.of_int (Ivec.length r.d_ids));
      for i = 0 to Ivec.length r.d_ids - 1 do
        Buffer.add_int64_le b (Int64.of_int (Ivec.get r.d_ids i));
        Buffer.add_int64_le b (Int64.of_int (Ivec.get r.d_times i))
      done)
    env.slots;
  Digest.to_hex (Digest.string (Buffer.contents b))

let stacks env = Array.to_list env.slots |> List.filter_map (fun s -> s.stack)

let sum_metrics env f =
  List.fold_left (fun acc st -> acc + f (Stack.metrics st)) 0 (stacks env)

let max_metrics env f =
  List.fold_left (fun acc st -> max acc (f (Stack.metrics st))) 0 (stacks env)

(* Outage: after each crash, the longest simulated gap in the merged
   survivor delivery timeline before the next crash (or the end). *)
let outage_ms_max env survivors =
  let times =
    List.concat_map
      (fun s ->
        let r = s.rec_ in
        List.init (Ivec.length r.d_times) (Ivec.get r.d_times))
      survivors
    |> Array.of_list
  in
  Array.sort compare times;
  let crashes = List.sort compare env.crash_times in
  let rec go acc = function
    | [] -> acc
    | c :: rest ->
      let stop = match rest with c' :: _ -> c' | [] -> env.w.Workload.run_until in
      let prev = ref c and best = ref 0 in
      Array.iter
        (fun t ->
          if t >= c && t < stop then begin
            best := max !best (t - !prev);
            prev := t
          end)
        times;
      go (max acc !best) rest
  in
  Float.of_int (go 0 crashes) /. 1000.

(* Everything a pass reports. Raises [Violation] when an ordering check
   fails. *)
let results env (times : run_times) =
  let survivors = survivors env in
  let pos, view_of = index_deliveries env in
  (match env.w.Workload.kind with
   | Workload.Bss_dense | Workload.Pc_encoded -> check_causal env
   | Workload.Abcast_faults -> check_agreement survivors pos);
  let attempted, missing = required env survivors ~pos ~view_of in
  let lat =
    Array.concat
      (Array.to_list
         (Array.map
            (fun slot ->
              let r = slot.rec_ in
              Array.init (Ivec.length r.d_ids) (fun i ->
                  Ivec.get r.d_times i - Ivec.get env.mc_sched (Ivec.get r.d_ids i)))
            env.slots))
  in
  Array.sort compare lat;
  let deliveries = Array.length lat in
  let multicasts = Ivec.length env.mc_sender in
  let packets =
    Array.fold_left (fun acc s -> acc + Endpoint.packets_sent s.endpoint) 0 env.slots
  in
  let per_delivery x = Float.of_int x /. Float.of_int (max 1 deliveries) in
  [ ("fingerprint", S (fingerprint env));
    ("deliveries", I deliveries);
    ("multicasts", I multicasts);
    ("attempted", I attempted);
    ("missing", I missing);
    ("survivors", I (List.length survivors));
    ("crashes", I (List.length env.crash_times));
    ("run_wall_s", F (Float.of_int times.wall_ns /. 1e9));
    ("run_norm_s", F times.norm_s);
    ("alloc_words", F times.alloc_words);
    ("top_heap_words", I times.top_heap_words);
    ("latency_p50_us", F (percentile lat 0.5));
    ("latency_p999_us", F (percentile lat 0.999));
    ("peak_unstable_bytes", I (max_metrics env (fun m -> m.Metrics.peak_unstable_bytes)));
    ("peak_unstable_msgs", I (max_metrics env (fun m -> m.Metrics.peak_unstable_count)));
    ("packets", I packets);
    ("engine_messages_sent", I (Engine.messages_sent env.engine));
    ("engine_messages_delivered", I (Engine.messages_delivered env.engine));
    ("header_bytes", I (sum_metrics env (fun m -> m.Metrics.header_bytes)));
    ("delayed_messages", I (sum_metrics env (fun m -> m.Metrics.delayed_messages)));
    ("control_messages", I (sum_metrics env (fun m -> m.Metrics.control_messages)));
    ("flush_messages", I (sum_metrics env (fun m -> m.Metrics.flush_messages)));
    ("suppressed_us", I (sum_metrics env (fun m -> m.Metrics.suppressed_us)));
    ("dropped_at_view_change",
     I (sum_metrics env (fun m -> m.Metrics.dropped_at_view_change)));
    ("data_received", I (sum_metrics env (fun m -> m.Metrics.data_received)));
    ("outage_ms_max", F (outage_ms_max env survivors));
    ("packets_per_delivery", F (per_delivery packets)) ]

(* Counters the protocol keeps only with [Config.metrics] on. *)
let registry_results env =
  let snap =
    Registry.merge_all
      (List.map (fun st -> Registry.snapshot (Stack.registry st)) (stacks env)
      @ Array.to_list
          (Array.map (fun s -> Registry.snapshot s.ep_registry) env.slots))
  in
  let c layer name = I (Registry.counter_total snap ~layer ~name) in
  let lag = Registry.histo snap ~layer:Event.Stability ~name:"stability_lag_us" in
  let lag_pct q =
    match lag with
    | Some h when Repro_obs.Histo.count h > 0 -> F (Repro_obs.Histo.percentile h q)
    | Some _ | None -> F 0.
  in
  let pc_sum f =
    List.fold_left
      (fun acc st -> match Stack.pc_stats st with Some s -> acc + f s | None -> acc)
      0 (stacks env)
  in
  [ ("origin_copies", c Event.Ordering "origin_copies");
    ("forward_copies", c Event.Ordering "forward_copies");
    ("drain_copies", c Event.Ordering "drain_copies");
    ("resend_copies", c Event.Ordering "resend_copies");
    ("gossip_msgs", c Event.Stability "gossip_msgs");
    ("minima_advances", c Event.Stability "minima_advances");
    ("flushes", c Event.View "flushes");
    ("view_changes", c Event.View "view_changes");
    ("wire_bytes", c Event.Transport "wire_bytes");
    ("stability_lag_count",
     I (match lag with Some h -> Repro_obs.Histo.count h | None -> 0));
    ("stability_lag_p50_us", lag_pct 0.5);
    ("stability_lag_p99_us", lag_pct 0.99);
    ("pc_forwards", I (pc_sum (fun s -> s.Pc_causal.forwards)));
    ("pc_duplicates", I (pc_sum (fun s -> s.Pc_causal.duplicates_dropped))) ]
