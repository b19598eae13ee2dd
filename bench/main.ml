(* Benchmark harness: [--json] writes BENCH_delivery.json.

   The file holds ns/op bechamel micro-benchmarks and end-to-end curve
   families from the Section 5 scaling experiment. The micro rows cover
   the per-message structures behind the paper's "overhead on every
   message transmission and reception" claim (vector-clock compare,
   deliverable and merge, a Lamport stamp, and the state-level dependency
   cache and lock manager, all with impl "production"), the delivery queue
   and the stability tracker (each against its test-oracle reference
   implementation, with and without a permanently blocked/unstable
   backlog) and the wire codec (ns/encode, ns/decode and real bytes/msg
   for bss vs pc frames). The end-to-end families are "queue" (the indexed
   delivery queue, n = 4/16/64/256/512), "causal" (BSS vector timestamps
   vs PC-broadcast constant metadata — the per-delivery metadata curve
   that is linear for bss and flat for pc; bss runs the dense stability
   tracker to n = 1024, pc runs the sparse tracker to n = 4096, with a
   measured per-point peak-heap column) and "wire" (the Encoded wire
   format). Every end-to-end row simulates at least 50 ms. [--domains N]
   runs the end-to-end sections on the parallel engine with N worker
   domains (default: the sequential reference engine). [--smoke] shrinks
   quotas and sizes for CI (causal capped at n = 256 — the n = 1024 bss
   point needs ~20 GB for the group's O(n^2) matrix clocks and lives in
   the committed full-mode baseline). Full mode takes hours and 9-20 GB,
   so it is never the default: with no flag the program prints its usage
   and exits 2.
   [--out FILE] overrides the output path. [--validate FILE] checks the
   schema and pins the pc metadata flatness, and with [--baseline FILE]
   additionally fails on a >30% deliveries-per-cpu-second or
   peak-unstable-bytes regression at any (impl, group size) present in
   both files. The schema is documented in EXPERIMENTS.md. *)

module Scaling = Repro_experiments.Scaling
module Config = Repro_catocs.Config
module Delivery_queue = Repro_catocs.Delivery_queue
module Stability = Repro_catocs.Stability
module Metrics = Repro_catocs.Metrics
module Wire = Repro_catocs.Wire
module Wire_codec = Repro_catocs.Wire_codec
module Reference_queue = Repro_oracle.Reference_queue
module Reference_stability = Repro_oracle.Reference_stability
module Json = Repro_analyze.Json
module Obs_log = Repro_obs.Log

(* ------------------------------------------------------------------ *)
(* Row columns                                                          *)
(* ------------------------------------------------------------------ *)

(* Each row kind has one column list. The writer builds a row by reading
   every column from the row's source value, and --validate checks every
   column's presence and type, so each key is named once. A [Num] column
   holds a float, or null when it is not finite. *)
type ty = Str | Int | Num
type 'a col = { key : string; ty : ty; get : 'a -> Json.t }

let str_col key f = { key; ty = Str; get = (fun r -> Json.Str (f r)) }
let int_col key f = { key; ty = Int; get = (fun r -> Json.Int (f r)) }
let num_col key f = { key; ty = Num; get = (fun r -> Json.Float (f r)) }
let row cols r = Json.Obj (List.map (fun c -> (c.key, c.get r)) cols)
let spec cols = List.map (fun c -> (c.key, c.ty)) cols

let json_float f =
  if Float.is_nan f || Float.is_integer (f /. 0.) then "null"
  else Printf.sprintf "%.3f" f

(* One row per line and floats to three decimals. [Json.to_string] puts
   every field on its own line and keeps six significant digits, which
   would drop the third decimal of four-digit columns such as the n = 256
   bss [mean_header_bytes_per_delivery]. *)
let rec render = function
  | Json.Null -> "null"
  | Json.Bool b -> string_of_bool b
  | Json.Int i -> string_of_int i
  | Json.Float f -> json_float f
  | Json.Str s -> "\"" ^ Repro_obs.Export.escape s ^ "\""
  | Json.Arr items ->
    "[\n"
    ^ String.concat ",\n" (List.map (fun v -> "    " ^ render v) items)
    ^ "\n  ]"
  | Json.Obj fields ->
    "{ "
    ^ String.concat ", "
        (List.map (fun (k, v) -> render (Json.Str k) ^ ": " ^ render v) fields)
    ^ " }"

let ms duration = Sim_time.to_us duration / 1000

(* ------------------------------------------------------------------ *)
(* Micro rows                                                           *)
(* ------------------------------------------------------------------ *)

type micro = {
  name : string;
  impl : string;
  senders : int;
  blocked : int;
  bytes_per_msg : int option;  (** codec rows: the encoded frame length *)
  run : unit -> unit;  (** one operation *)
}

let micro_cols =
  [ str_col "name" (fun (m, _) -> m.name);
    str_col "impl" (fun (m, _) -> m.impl);
    int_col "senders" (fun (m, _) -> m.senders);
    int_col "blocked" (fun (m, _) -> m.blocked);
    num_col "ns_per_op" snd ]

let codec_cols =
  [ int_col "bytes_per_msg" (fun (m, _) -> Option.get m.bytes_per_msg) ]

(* The bechamel OLS estimate of ns per call for each thunk. *)
let bechamel_ns ~smoke specs =
  let open Bechamel in
  let cfg =
    if smoke then Benchmark.cfg ~limit:200 ~quota:(Time.second 0.05) ()
    else Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let clock = Toolkit.Instance.monotonic_clock in
  List.map
    (fun (name, f) ->
      let test = Test.make ~name (Staged.stage f) in
      let results = Analyze.all ols clock (Benchmark.all cfg [ clock ] test) in
      match Analyze.OLS.estimates (Hashtbl.find results name) with
      | Some [ est ] -> est
      | Some _ | None -> Float.nan)
    specs

(* The per-message structures in production: vector-clock compare,
   deliverable and merge are O(N); a Lamport stamp is constant; the
   state-level alternatives (a dependency-cache insert+lookup and a lock
   acquire+release) are independent of group size. *)
let production_micro () =
  let production senders name run =
    { name; impl = "production"; senders; blocked = 0; bytes_per_msg = None;
      run }
  in
  let vc n =
    let a = Vector_clock.create n and b = Vector_clock.create n in
    for i = 0 to n - 1 do
      Vector_clock.set a i (i * 3);
      Vector_clock.set b i (i * 2)
    done;
    (* the next message from sender 0: every other component equals the
       local clock's, so the check walks all n components and succeeds *)
    let next = Vector_clock.copy b in
    Vector_clock.set next 0 (Vector_clock.get b 0 + 1);
    let m name = production n (Printf.sprintf name n) in
    [ m "vc-compare-n%d" (fun () -> ignore (Vector_clock.compare_causal a b));
      m "vc-deliverable-n%d" (fun () ->
          ignore (Vector_clock.deliverable ~sender:0 ~msg:next ~local:b));
      m "vc-merge-n%d" (fun () ->
          let c = Vector_clock.copy a in
          Vector_clock.merge_into c b) ]
  in
  let lamport = Lamport.create () in
  let version = ref 0 in
  let module Dep_cache = Repro_statelevel.Dep_cache in
  let module Lock_manager = Repro_txn.Lock_manager in
  vc 4 @ vc 64
  @ [ production 1 "lamport-stamp" (fun () ->
          ignore (Lamport.stamp lamport ~node:0));
      production 1 "dep-cache-insert-lookup" (fun () ->
          let c = Dep_cache.create () in
          incr version;
          Dep_cache.insert c
            { Dep_cache.key = "base"; item_version = !version; value = 1.0;
              deps = [] };
          Dep_cache.insert c
            { Dep_cache.key = "derived"; item_version = !version; value = 2.0;
              deps = [ { Dep_cache.dep_key = "base"; dep_version = !version } ]
            };
          ignore (Dep_cache.lookup c ~key:"derived"));
      production 1 "lock-acquire-release" (fun () ->
          let lm = Lock_manager.create () in
          ignore (Lock_manager.acquire lm 1 ~key:"a" Lock_manager.Exclusive);
          ignore (Lock_manager.release_all lm 1)) ]

(* The delivery-path rows measure each production structure against the
   test oracle it is differentially checked against, labelled by [impl]. *)
module type QUEUE = sig
  type 'a t

  val create : Delivery_queue.mode -> 'a t
  val add : 'a t -> 'a Delivery_queue.pending -> unit

  val take_deliverable :
    'a t -> local:Vector_clock.t -> 'a Delivery_queue.pending option
end

let queues : (string * (module QUEUE)) list =
  [ ("indexed",
     (module struct
       include Delivery_queue

       let create mode = create mode
     end));
    ("reference", (module Reference_queue)) ]

module type TRACKER = sig
  type 'a t

  val create :
    ?clock:Group_clock.impl ->
    ?bytes_of:('a Wire.data -> int) ->
    ?obs:Repro_obs.Log.t * int ->
    ?registry:Repro_obs.Registry.t ->
    group_size:int ->
    metrics:Metrics.t ->
    graph:Causality.t option ->
    unit ->
    'a t

  val note_sent_or_delivered : 'a t -> 'a Wire.data -> unit
  val observe_vc :
    'a t -> live:bool -> rank:int -> now:Sim_time.t -> Vector_clock.t -> unit
  val unstable_count : 'a t -> int
end

let trackers : (string * (module TRACKER)) list =
  [ ("incremental", (module Stability));
    ("reference", (module Reference_stability)) ]

(* Steady-state delivery-queue cycle: one deliverable message from sender 0
   is added and immediately taken, on top of [blocked] messages that can
   never become deliverable (a per-sender FIFO gap: their sequence numbers
   skip local+1). The reference list rescans the blocked backlog on every
   take; the indexed queue never revisits it. *)
let queue_cycle (module Q : QUEUE) ~senders ~blocked =
  let q = Q.create Delivery_queue.Causal_full in
  let local = Vector_clock.create senders in
  let mk ~rank ~vt =
    { Delivery_queue.data =
        { Wire.msg_id = 0; trace_id = 0; origin = rank; sender_rank = rank;
          view_id = 0;
          vt; meta = Wire.Causal_meta; payload = 0; payload_bytes = 16;
          sent_at = Sim_time.zero; piggyback = [] };
      arrived_at = Sim_time.zero }
  in
  let per_sender = Array.make senders 0 in
  for i = 0 to blocked - 1 do
    (* never deliverable: seq = 2 + k while local stays at 0, so the
       required seq 1 never exists *)
    let rank = if senders > 1 then 1 + (i mod (senders - 1)) else 0 in
    let vt = Vector_clock.create senders in
    Vector_clock.set vt rank (2 + per_sender.(rank));
    per_sender.(rank) <- per_sender.(rank) + 1;
    Q.add q (mk ~rank ~vt)
  done;
  let seq = ref 0 in
  fun () ->
    let s = !seq + 1 in
    let vt = Vector_clock.create senders in
    Vector_clock.set vt 0 s;
    Q.add q (mk ~rank:0 ~vt);
    match Q.take_deliverable q ~local with
    | Some _ ->
      seq := s;
      Vector_clock.set local 0 s
    | None -> failwith "bench: steady-state message not deliverable"

(* Steady-state stability cycle: one multicast from sender 0 is buffered,
   then every member's matrix row is observed with a clock covering it, so
   the message stabilises and is released at the last observation — on top
   of [backlog] messages from the other senders that never stabilise. The
   reference tracker rescans the whole buffer on every observation; the
   incremental one pops exactly the released message. *)
let stability_cycle (module Tracker : TRACKER) ~members ~backlog =
  let metrics = Metrics.create () in
  let st = Tracker.create ~group_size:members ~metrics ~graph:None () in
  let next_id = ref 0 in
  let mk ~rank ~vt =
    incr next_id;
    { Wire.msg_id = !next_id; trace_id = !next_id; origin = rank;
      sender_rank = rank; view_id = 0;
      vt; meta = Wire.Causal_meta; payload = 0; payload_bytes = 16;
      sent_at = Sim_time.zero; piggyback = [] }
  in
  let per_sender = Array.make members 0 in
  for i = 0 to backlog - 1 do
    (* from senders other than 0; no row but their own ever covers their
       sequence numbers, so these stay buffered for the whole run *)
    let rank = if members > 1 then 1 + (i mod (members - 1)) else 0 in
    per_sender.(rank) <- per_sender.(rank) + 1;
    let vt = Vector_clock.create members in
    Vector_clock.set vt rank per_sender.(rank);
    Tracker.note_sent_or_delivered st (mk ~rank ~vt)
  done;
  let seq = ref 0 in
  let gossip = Vector_clock.create members in
  fun () ->
    incr seq;
    let vt = Vector_clock.create members in
    Vector_clock.set vt 0 !seq;
    Tracker.note_sent_or_delivered st (mk ~rank:0 ~vt);
    Vector_clock.set gossip 0 !seq;
    for r = 0 to members - 1 do
      (* [gossip] is mutated again next cycle *)
      Tracker.observe_vc st ~live:true ~rank:r ~now:Sim_time.zero gossip
    done;
    if Tracker.unstable_count st <> backlog then
      failwith "bench: stability steady state broken"

(* Wire-codec micro rows: the real cost of the Config.Encoded wire path —
   ns to encode and decode one data frame, and the frame's actual size on
   the wire. The bss frame carries a dense n-component vector timestamp,
   so encode/decode time and bytes/msg grow with the group; the pc frame
   ships only the vector size plus the origin sequence and stays flat.
   Encode alternates between two identical-shape messages so the one-slot
   frame memo never hits: the row prices the full serialization, not the
   amortized multicast fan-out. *)
let codec_micro ~smoke =
  let mk_frame ~impl ~n =
    let rank = n / 2 in
    let vt = Vector_clock.create n in
    let meta =
      match impl with
      | "bss" ->
        for i = 0 to n - 1 do
          Vector_clock.set vt i (i * 3)
        done;
        Wire.Causal_meta
      | _ -> Wire.Pc_meta { origin_seq = 7 }
    in
    Wire.Proto
      ( 1,
        Wire.Data
          { Wire.msg_id = 12345; trace_id = 12345; origin = rank;
            sender_rank = rank;
            view_id = 3; vt; meta; payload = 42; payload_bytes = 16;
            sent_at = Sim_time.us 987_654; piggyback = [] } )
  in
  let sizes = if smoke then [ 4; 64 ] else [ 4; 64; 256 ] in
  List.concat_map
    (fun impl ->
      List.concat_map
        (fun n ->
          let codec = Wire_codec.create Wire_codec.int_payload in
          let a = mk_frame ~impl ~n and b = mk_frame ~impl ~n in
          let frame = Wire_codec.encode codec a in
          let bytes_per_msg = String.length frame in
          let flip = ref false in
          let m op run =
            { name = Printf.sprintf "codec-%s/%s/n%d" op impl n; impl;
              senders = n; blocked = 0; bytes_per_msg = Some bytes_per_msg;
              run }
          in
          [ m "encode" (fun () ->
                flip := not !flip;
                ignore (Wire_codec.encode codec (if !flip then a else b)));
            m "decode" (fun () -> ignore (Wire_codec.decode codec frame)) ])
        sizes)
    [ "bss"; "pc" ]

let micro_section ~smoke =
  let dq_configs =
    if smoke then [ (4, 0); (16, 64) ]
    else [ (4, 0); (16, 0); (64, 0); (256, 0); (64, 256); (256, 1024) ]
  in
  let stab_configs =
    if smoke then [ (4, 0); (16, 64) ]
    else [ (4, 0); (16, 0); (64, 0); (64, 256); (256, 1024) ]
  in
  let cycles kind impls configs cycle =
    List.concat_map
      (fun (impl, m) ->
        List.map
          (fun (senders, blocked) ->
            { name = Printf.sprintf "%s/%s/n%d/b%d" kind impl senders blocked;
              impl; senders; blocked; bytes_per_msg = None;
              run = cycle m senders blocked })
          configs)
      impls
  in
  let specs =
    cycles "dq-add-take" queues dq_configs (fun q senders blocked ->
        queue_cycle q ~senders ~blocked)
    @ cycles "stab-release" trackers stab_configs (fun t members backlog ->
        stability_cycle t ~members ~backlog)
    @ codec_micro ~smoke @ production_micro ()
  in
  let ns = bechamel_ns ~smoke (List.map (fun m -> (m.name, m.run)) specs) in
  List.map2
    (fun m ns ->
      Printf.printf "  micro %-48s %10s ns/op%s\n" m.name (json_float ns)
        (match m.bytes_per_msg with
         | Some b -> Printf.sprintf "  %4d B/msg" b
         | None -> "");
      row
        (micro_cols @ if m.bytes_per_msg = None then [] else codec_cols)
        (m, ns))
    specs ns

(* ------------------------------------------------------------------ *)
(* End-to-end rows                                                      *)
(* ------------------------------------------------------------------ *)

(* The scaling runs' settings with the shared causal graph off: its
   bookkeeping is not part of the delivery path being timed, and the
   parallel engine rejects it. *)
let throughput_config = { Scaling.config with Config.track_graph = false }

(* Keep the event count roughly constant across sizes: the multicast
   fan-out makes delivered work ~ n^2 x duration. Every row simulates at
   least 50 ms: shorter horizons are dominated by stack setup and cut
   multicasts off mid-propagation (at n >= 1024 a 20 ms horizon cuts the
   8-ary tree dissemination off, so most of the CPU charged to a point was
   setup — the n = 1024 pc rows sextuple their deliveries-per-cpu-second
   once the horizon lets the multicasts land), which overstates
   per-delivery costs and understates throughput. Smoke runs the same
   workload as full at the sizes it keeps, so its numbers are directly
   comparable to a committed full-mode baseline (the --baseline regression
   gate relies on this). *)
let duration_for n =
  if n <= 16 then Sim_time.seconds 1
  else if n <= 64 then Sim_time.ms 300
  else if n <= 256 then Sim_time.ms 60
  else Sim_time.ms 50

(* At n = 1024 a single full-mesh gossip round enqueues ~1M vc-bearing
   messages at once (~17 GB of transient heap) and dwarfs the data
   traffic; push the period past the run horizon — stability still spreads
   via the timestamps piggybacked on data messages, and all
   implementations get the identical configuration. *)
let gossip_for n =
  if n <= 64 then Scaling.config.Config.gossip_period
  else if n <= 256 then Sim_time.ms 50
  else Sim_time.ms 500

(* What one end-to-end row is read from. *)
type e2e = {
  family : string;
  impl : string;
  config : Config.t;
  duration : Sim_time.t;
  point : Scaling.point;
  cpu : float;
  heap_words : int;
}

let rate r =
  if r.cpu > 0. then float_of_int r.point.deliveries_total /. r.cpu
  else Float.nan

let e2e_cols =
  [ str_col "impl" (fun r -> r.impl);
    str_col "family" (fun r -> r.family);
    int_col "group_size" (fun r -> r.point.group_size);
    int_col "sim_duration_ms" (fun r -> ms r.duration);
    int_col "messages_sent" (fun r -> r.point.messages_total);
    int_col "deliveries" (fun r -> r.point.deliveries_total);
    num_col "cpu_seconds" (fun r -> r.cpu);
    num_col "deliveries_per_cpu_second" rate;
    int_col "peak_node_unstable_msgs" (fun r ->
        r.point.peak_node_unstable_msgs);
    int_col "peak_node_unstable_bytes" (fun r ->
        r.point.peak_node_unstable_bytes);
    num_col "mean_delivery_delay_us" (fun r ->
        r.point.mean_delivery_delay_us) ]

let system_unstable_bytes =
  int_col "system_unstable_bytes" (fun r -> r.point.system_unstable_bytes)

(* Each family's columns after [e2e_cols]. *)
let families =
  [ ("queue", [ system_unstable_bytes ]);
    ( "causal",
      [ str_col "stability_clock" (fun r ->
            match r.config.Config.stability_clock with
            | Config.Dense_clock -> "dense"
            | Config.Sparse_clock -> "sparse");
        system_unstable_bytes;
        int_col "app_deliveries" (fun r -> r.point.app_deliveries_total);
        int_col "header_bytes_total" (fun r -> r.point.header_bytes_total);
        (* normalised by application deliveries, not engine messages: at
           large n the engine count is dominated by n^2 gossip and would
           dilute the per-delivery metadata curve *)
        num_col "mean_header_bytes_per_delivery" (fun r ->
            if r.point.app_deliveries_total > 0 then
              float_of_int r.point.header_bytes_total
              /. float_of_int r.point.app_deliveries_total
            else Float.nan);
        int_col "peak_heap_words" (fun r -> r.heap_words);
        int_col "forward_copies" (fun r -> r.point.forward_copies);
        num_col "delivery_p50_us" (fun r -> r.point.delivery_p50_us);
        num_col "delivery_p99_us" (fun r -> r.point.delivery_p99_us);
        num_col "delivery_p999_us" (fun r -> r.point.delivery_p999_us);
        num_col "stability_lag_p50_us" (fun r -> r.point.stability_lag_p50_us);
        num_col "stability_lag_p99_us" (fun r -> r.point.stability_lag_p99_us);
        num_col "stability_lag_p999_us" (fun r ->
            r.point.stability_lag_p999_us) ] );
    ( "wire",
      [ int_col "encoded_wire_bytes" (fun r -> r.point.encoded_wire_bytes);
        int_col "wire_packets" (fun r -> r.point.wire_packets);
        num_col "encoded_bytes_per_msg" (fun r ->
            if r.point.wire_packets > 0 then
              float_of_int r.point.encoded_wire_bytes
              /. float_of_int r.point.wire_packets
            else Float.nan) ] ) ]

(* (family, impl, sizes, config at size n), in run and row order.

   The queue family is the production delivery path. The causal family is
   the same Section 5 workload run with BSS vector timestamps and with
   PC-broadcast constant metadata; its headline column is mean
   ordering-metadata bytes per delivery: ~8n for bss, flat for pc. PC runs
   disseminate over an 8-ary spanning tree at every size and track
   stability through the sparse matrix clock — the combination that makes
   the n = 2048 and n = 4096 points honest: the dense tracker alone would
   need ~128 GB at n = 4096 (n^2 rows of n boxed ints), the sparse one
   adopts the shared gossip snapshots by reference. bss keeps the dense
   tracker (its committed baseline) and stops at n = 1024; smoke stops at
   n = 256, where the 4..256 span already shows bss metadata growing ~65x
   over flat pc. The causal rows turn the metrics registry on: the copy
   counters and latency histograms come from the per-stack registries
   (counter bumps and bucket increments, cheap enough to leave on for the
   measured rows). The wire family frames every multicast through the
   length-prefixed codec, so its wire-byte columns weigh real encoded
   frames rather than the structural estimates; its headline column is
   encoded bytes per frame. *)
let e2e_runs ~smoke =
  let causal impl causal_impl stability_clock sizes =
    ( "causal", impl, (if smoke then [ 4; 16; 256 ] else sizes),
      fun n ->
        { (Config.with_causal_impl causal_impl throughput_config) with
          Config.stability_clock;
          pc_overlay = Config.Pc_tree { fanout = 8 };
          gossip_period = gossip_for n;
          metrics = true } )
  in
  [ ( "queue", "indexed",
      (if smoke then [ 4; 16 ] else [ 4; 16; 64; 256; 512 ]),
      fun _ -> throughput_config );
    causal "bss" Config.Vector_causal Config.Dense_clock
      [ 4; 16; 64; 256; 1024 ];
    causal "pc" Config.Pc_causal Config.Sparse_clock
      [ 4; 16; 64; 256; 1024; 2048; 4096 ];
    ( "wire", "encoded",
      (if smoke then [ 4; 16 ] else [ 4; 16; 64 ]),
      fun _ ->
        { throughput_config with
          Config.metrics = true;
          wire_format = Config.Encoded } ) ]

(* Every measured run is a forked child with a fresh major heap: the OCaml
   5.1 runtime never returns heap chunks to the OS (compaction is a no-op),
   so an in-process [heap_words] reading would report the maximum over
   every point run so far instead of this point's own footprint, and a run
   would inherit its predecessors' heap and GC schedule. The child prints
   its progress line directly (it shares stdout) and ships its result back
   over a pipe. *)
let in_fresh_process (f : unit -> 'a) : 'a =
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let v =
      try f ()
      with e ->
        prerr_endline (Printexc.to_string e);
        Stdlib.exit 1
    in
    let oc = Unix.out_channel_of_descr wr in
    Marshal.to_channel oc v [];
    flush oc;
    Stdlib.exit 0
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let v = try Some (Marshal.from_channel ic) with End_of_file -> None in
    close_in ic;
    (match (snd (Unix.waitpid [] pid), v) with
     | Unix.WEXITED 0, Some v -> v
     | _ -> failwith "bench: forked point failed")

let e2e_section ~engine_impl ~smoke =
  List.concat_map
    (fun (family, impl, sizes, config_for) ->
      List.map
        (fun n ->
          in_fresh_process @@ fun () ->
          let duration = duration_for n and config = config_for n in
          let t0 = Sys.time () in
          let point =
            match
              Scaling.sweep ~sizes:[ n ] ~seed:11L ~duration ~engine_impl
                ~config ()
            with
            | [ p ] -> p
            | _ -> assert false
          in
          let cpu = Sys.time () -. t0 in
          (* the child's major heap grew from a fresh start to whatever
             this point forced the runtime to hold — its high-water mark *)
          let heap_words = (Gc.quick_stat ()).Gc.heap_words in
          let r = { family; impl; config; duration; point; cpu; heap_words } in
          Printf.printf
            "  %-6s %-8s n=%-4d deliveries=%-8d cpu=%6.2fs  %10.0f msg/s\n%!"
            family impl n point.deliveries_total cpu (rate r);
          row (e2e_cols @ List.assoc family families) r)
        sizes)
    (e2e_runs ~smoke)

(* ------------------------------------------------------------------ *)
(* Telemetry overhead                                                   *)
(* ------------------------------------------------------------------ *)

(* Telemetry overhead at the end-to-end level: the same n=64 scaling run
   with no log, with an attached-but-disabled log (the production default:
   one load + one branch per would-be event), with logging enabled and
   with the metrics registry on. Every run is its own forked process, so
   no variant inherits another's heap or GC schedule. The runs come in
   [obs_pairs] rounds; each round runs the no-log and disabled variants
   back to back, alternating which goes first, so slow drift in host load
   lands on both halves of a pair and cancels in its ratio. The disabled
   path is gated at [obs_gate_pct] on the median over the pairs of the
   per-pair throughput delta; the other two variants' deltas (against
   their round's no-log run) are informational. Timing gates flip on host
   noise, so the disabled path is also gated by count: its minor words
   per delivery, which are the same on every run of the seed, may exceed
   the no-log variant's by at most [obs_alloc_gate_words] (the log's
   one-off buffer; any per-event allocation adds at least a word per
   delivery). *)
let obs_gate_pct = 2.0
let obs_alloc_gate_words = 0.1
let obs_pairs = 9

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Variant [v]'s median rate, median delta against its round's no-log run
   and minimum minor words per delivery; variant 0 is no log, 1 the
   disabled log, 2 the enabled log, 3 the metrics registry. *)
type obs = {
  obs_size : int;
  obs_duration : Sim_time.t;
  obs_deliveries : int;
  obs_rate : int -> float;
  obs_delta : int -> float;
  obs_words : int -> float;
}

let obs_cols =
  [ int_col "group_size" (fun o -> o.obs_size);
    int_col "sim_duration_ms" (fun o -> ms o.obs_duration);
    int_col "deliveries" (fun o -> o.obs_deliveries);
    num_col "no_log_rate" (fun o -> o.obs_rate 0);
    num_col "disabled_rate" (fun o -> o.obs_rate 1);
    num_col "enabled_rate" (fun o -> o.obs_rate 2);
    num_col "disabled_delta_pct" (fun o -> o.obs_delta 1);
    num_col "enabled_delta_pct" (fun o -> o.obs_delta 2);
    num_col "metrics_rate" (fun o -> o.obs_rate 3);
    num_col "metrics_delta_pct" (fun o -> o.obs_delta 3);
    num_col "gate_pct" (fun _ -> obs_gate_pct) ]

(* The paired rounds and the allocation gate; the committed full-mode file
   predates them and carries "runs" (best-of-runs rates) instead. *)
let paired_cols =
  [ int_col "pairs" (fun _ -> obs_pairs);
    num_col "no_log_minor_words_per_delivery" (fun o -> o.obs_words 0);
    num_col "disabled_minor_words_per_delivery" (fun o -> o.obs_words 1);
    num_col "alloc_gate_words" (fun _ -> obs_alloc_gate_words) ]

let obs_section ~smoke =
  let n = if smoke then 16 else 64 in
  let duration = if smoke then Sim_time.seconds 3 else Sim_time.ms 300 in
  let deliveries = ref 0 in
  (* Every metrics-off variant still executes the registry's scrap-cell
     stores (the cells are unconditionally on the hot path), so the gated
     disabled-path delta covers the metrics-disabled cost as well as the
     disabled log's. *)
  let run_once (make_obs, metrics) =
    let rate, words, d =
      in_fresh_process @@ fun () ->
      let words0 = Gc.minor_words () in
      let obs = make_obs () in
      let t0 = Sys.time () in
      let point =
        Scaling.measure_with_graph ?obs ~duration ~seed:11L
          ~config:{ throughput_config with Config.metrics } n
      in
      let cpu = Sys.time () -. t0 in
      let words = Gc.minor_words () -. words0 in
      let d = point.Scaling.deliveries_total in
      ( (if cpu > 0. then float_of_int d /. cpu else 0.0),
        words /. float_of_int d, d )
    in
    deliveries := d;
    (rate, words)
  in
  let variants =
    [|
      ((fun () -> None), false);
      ((fun () -> Some (Obs_log.create ~enabled:false ())), false);
      ((fun () -> Some (Obs_log.create ())), false);
      ((fun () -> None), true);
    |]
  in
  (* rounds.(i).(v): variant [v]'s (rate, words) in round [i] *)
  let rounds =
    List.init obs_pairs (fun i ->
        let r = Array.make (Array.length variants) (0.0, 0.0) in
        List.iter
          (fun v -> r.(v) <- run_once variants.(v))
          (if i mod 2 = 0 then [ 0; 1; 2; 3 ] else [ 1; 0; 2; 3 ]);
        r)
  in
  let o =
    { obs_size = n;
      obs_duration = duration;
      obs_deliveries = !deliveries;
      obs_rate = (fun v -> median (List.map (fun r -> fst r.(v)) rounds));
      obs_delta =
        (fun v ->
          let pct r = (fst r.(0) -. fst r.(v)) /. fst r.(0) *. 100.0 in
          median (List.map pct rounds));
      obs_words =
        (fun v ->
          List.fold_left (fun acc r -> Float.min acc (snd r.(v)))
            Float.infinity rounds) }
  in
  Printf.printf
    "  obs n=%-3d no-log %10.0f msg/s | disabled %10.0f (%+.2f%%) | enabled \
     %10.0f (%+.2f%%) | metrics %10.0f (%+.2f%%)  gate %.1f%% on the median \
     of %d pairs\n\
    \  obs minor words/delivery: no-log %.3f | disabled %.3f  gate +%.1f\n%!"
    n (o.obs_rate 0) (o.obs_rate 1) (o.obs_delta 1) (o.obs_rate 2)
    (o.obs_delta 2) (o.obs_rate 3) (o.obs_delta 3) obs_gate_pct obs_pairs
    (o.obs_words 0) (o.obs_words 1) obs_alloc_gate_words;
  row (obs_cols @ paired_cols) o

(* ------------------------------------------------------------------ *)
(* BENCH_delivery.json                                                  *)
(* ------------------------------------------------------------------ *)

let emit_json ~domains ~smoke ~out =
  (* --domains N runs the end-to-end sections on the parallel engine
     (N >= 1 including 1: Parallel {domains = 1} and {domains = 2} produce
     identical simulations, which is what the CI matrix legs compare);
     without the flag the sequential reference engine runs, keeping the
     committed full-mode baseline's numbers comparable across PRs. The obs
     section always runs sequentially — an attached log is group-shared
     state the parallel engine rejects. *)
  let engine_impl =
    match domains with
    | None -> Engine.Sequential
    | Some d -> Engine.Parallel { domains = d }
  in
  let mode = if smoke then "smoke" else "full" in
  Printf.printf "delivery-path benchmark (%s mode, %s engine)\n%!" mode
    (match domains with
     | None -> "sequential"
     | Some d -> Printf.sprintf "parallel d=%d" d);
  (* obs first: its runs fork from this process, and fork is
     copy-on-write, so a late fork would inherit the bloated post-micro
     heap and its GC tax would land unevenly across the variants (measured
     once as a fake +4..12% on the disabled path) *)
  let obs = obs_section ~smoke in
  let micro = micro_section ~smoke in
  let e2e = e2e_section ~engine_impl ~smoke in
  (* a deterministic protocol-metrics snapshot next to the bench document:
     the CI smoke job uploads both as artifacts, so every PR carries a
     browsable registry dump (Prometheus text + JSON) of a known run *)
  let write path contents =
    let oc = open_out path in
    output_string oc contents;
    close_out oc
  in
  let point =
    Scaling.measure_with_graph ~duration:(Sim_time.ms 300) ~seed:11L
      ~config:{ throughput_config with Config.metrics = true } 16
  in
  let snap = point.Scaling.registry_snapshot in
  List.iter
    (fun (name, contents) ->
      let path = Filename.concat (Filename.dirname out) name in
      write path contents;
      Printf.printf "wrote %s (registry fingerprint %s)\n" path
        (Repro_obs.Registry.fingerprint snap))
    [ ("METRICS_snapshot.prom", Repro_obs.Registry.to_prometheus snap);
      ("METRICS_snapshot.json", Repro_obs.Registry.to_json snap) ];
  let fields =
    [ ("schema_version", Json.Int 1);
      ("mode", Json.Str mode);
      ("engine", Json.Str (if domains = None then "sequential" else "parallel"))
    ]
    @ (match domains with
       | Some d -> [ ("engine_domains", Json.Int d) ]
       | None -> [])
    @ [ ("micro", Json.Arr micro);
        ("end_to_end", Json.Arr e2e);
        ("obs_overhead", Json.Arr [ obs ]) ]
  in
  write out
    ("{\n"
    ^ String.concat ",\n"
        (List.map (fun (k, v) -> "  " ^ render (Json.Str k) ^ ": " ^ render v)
           fields)
    ^ "\n}\n");
  Printf.printf "wrote %s\n" out

(* ------------------------------------------------------------------ *)
(* --validate: the BENCH_delivery.json schema check (used by CI)       *)
(* ------------------------------------------------------------------ *)

exception Invalid of string

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

let field row key =
  match Json.member key row with
  | Some v -> v
  | None -> invalid "missing key %S" key

let str_of row key =
  match Json.to_str (field row key) with
  | Some s -> s
  | None -> invalid "%S must be a string" key

let int_of row key =
  match Json.to_int (field row key) with
  | Some i -> i
  | None -> invalid "%S must be an integer" key

(* [None] for null *)
let num_of row key =
  match field row key with
  | Json.Null -> None
  | v -> (
    match Json.to_float v with
    | Some f -> Some f
    | None -> invalid "%S must be a number or null" key)

let check spec row =
  List.iter
    (fun (key, ty) ->
      match ty with
      | Str -> ignore (str_of row key)
      | Int -> ignore (int_of row key)
      | Num -> ignore (num_of row key))
    spec;
  row

let has_any cols row = List.exists (fun c -> Json.member c.key row <> None) cols

let rows doc key =
  match Json.to_list (field doc key) with
  | Some (_ :: _ as l) -> l
  | Some [] -> invalid "%S must be non-empty" key
  | None -> invalid "%S must be an array" key

(* A file has one of two shapes: what [emit_json] writes, or the committed
   full-mode file, whose obs row carries "runs" and none of [paired_cols].
   Returns the mode and the micro, end-to-end and obs rows. *)
let load_checked file =
  let doc =
    match
      let ic = open_in_bin file in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Json.of_string s
    with
    | Ok doc -> doc
    | Error e | (exception Sys_error e) -> invalid "%s" e
  in
  if Json.to_int (field doc "schema_version") <> Some 1 then
    invalid "schema_version must be 1";
  let mode = str_of doc "mode" in
  (match str_of doc "engine" with
   | "sequential" -> ()
   | "parallel" ->
     let d = int_of doc "engine_domains" in
     if d < 1 then invalid "engine_domains must be >= 1, got %d" d
   | e -> invalid "unknown engine %S" e);
  let micro =
    List.map
      (fun r ->
        check
          (spec (micro_cols @ if has_any codec_cols r then codec_cols else []))
          r)
      (rows doc "micro")
  in
  let e2e =
    List.map
      (fun r ->
        let family = str_of r "family" in
        match List.assoc_opt family families with
        | Some extra -> check (spec (e2e_cols @ extra)) r
        | None -> invalid "unknown family %S" family)
      (rows doc "end_to_end")
  in
  let obs =
    List.map
      (fun r ->
        check
          (if has_any paired_cols r then spec (obs_cols @ paired_cols)
           else spec obs_cols @ [ ("runs", Int) ])
          r)
      (rows doc "obs_overhead")
  in
  (mode, micro, e2e, obs)

(* The causal family's headline claim: constant-metadata ordering stays
   flat per delivery as the group grows, while bss grows linearly with
   it. *)
let check_flatness e2e =
  let means impl =
    List.filter_map
      (fun r ->
        if str_of r "family" = "causal" && str_of r "impl" = impl then
          Option.map
            (fun m -> (int_of r "group_size", m))
            (num_of r "mean_header_bytes_per_delivery")
        else None)
      e2e
  in
  let pc = means "pc" and bss = means "bss" in
  let vals = List.map snd pc in
  let lo = List.fold_left Float.min Float.infinity vals in
  let hi = List.fold_left Float.max 0.0 vals in
  if List.length vals >= 2 && hi > 1.5 *. lo then
    invalid
      "pc metadata per delivery is not flat across group sizes: %.1f .. %.1f \
       B (> 1.5x spread)"
      lo hi;
  let shared = List.filter (fun (n, _) -> List.mem_assoc n bss) pc in
  match List.sort (fun (a, _) (b, _) -> compare b a) shared with
  | (n, pc_m) :: _ when n >= 64 && List.assoc n bss <= pc_m ->
    invalid
      "at n=%d bss metadata per delivery (%.1f B) should exceed pc's (%.1f B)"
      n (List.assoc n bss) pc_m
  | _ -> ()

(* The attached-but-disabled log must cost less than its own recorded gate
   (the <2% zero-allocation-path guarantee); returns the delta's basis. *)
let check_obs r =
  let n = int_of r "group_size" in
  let basis =
    if has_any paired_cols r then begin
      let pairs = int_of r "pairs" in
      if pairs < obs_pairs then
        invalid "obs_overhead has %d pairs, below the %d the gate needs" pairs
          obs_pairs;
      (* the disabled log may allocate at most [alloc_gate_words] more minor
         words per delivery than no log *)
      (match
         ( num_of r "no_log_minor_words_per_delivery",
           num_of r "disabled_minor_words_per_delivery",
           num_of r "alloc_gate_words" )
       with
       | Some off, Some disabled, Some gate ->
         if disabled -. off > gate then
           invalid
             "telemetry disabled path allocates %.3f minor words per delivery \
              over no log (gate %.1f) at n=%d"
             (disabled -. off) gate n
       | _ -> invalid "obs_overhead minor words must be numbers");
      Printf.sprintf "median of %d pairs" pairs
    end
    else Printf.sprintf "best of %d runs" (int_of r "runs")
  in
  match (num_of r "disabled_delta_pct", num_of r "gate_pct") with
  | Some delta, Some gate ->
    if delta > gate then
      invalid
        "telemetry disabled-path overhead %.2f%% (%s) exceeds the %.1f%% gate \
         at n=%d"
        delta basis gate n;
    basis
  | _ -> invalid "obs_overhead deltas must be numbers"

let e2e_key r = (str_of r "impl", int_of r "group_size")

let validate ?expect_mode ?baseline file =
  let guard file what f =
    try f ()
    with Invalid s ->
      Printf.eprintf "%s: %s: %s\n" file what s;
      exit 1
  in
  let e2e =
    guard file "validation failed" @@ fun () ->
    let mode, micro, e2e, obs = load_checked file in
    (match expect_mode with
     | Some m when m <> mode -> invalid "mode is %S, expected %S" mode m
     | Some _ | None -> ());
    check_flatness e2e;
    let bases = List.map check_obs obs in
    Printf.printf
      "%s OK: %d micro rows, %d e2e rows, %d obs rows (%s) (mode %s)\n" file
      (List.length micro) (List.length e2e) (List.length obs)
      (String.concat ", " bases) mode;
    e2e
  in
  (* --baseline: fail on a >30% throughput regression, or a >30% growth in
     peak per-node unstable-buffer bytes, at any (impl, group size) present
     in both files. Sub-half-second runs are scheduler noise, not a
     throughput measurement: they stay out of the throughput gate (the
     deterministic peak-bytes gate covers every row). *)
  let timed r =
    match (num_of r "deliveries_per_cpu_second", num_of r "cpu_seconds") with
    | Some rate, Some cpu when cpu >= 0.5 -> Some rate
    | _ -> None
  in
  Option.iter
    (fun bfile ->
      guard bfile "baseline comparison failed" @@ fun () ->
      let _, _, brows, _ = load_checked bfile in
      let fresh r = List.find_opt (fun f -> e2e_key f = e2e_key r) e2e in
      let compared = ref 0 in
      List.iter
        (fun b ->
          let impl, size = e2e_key b in
          (match (timed b, Option.map timed (fresh b)) with
           | Some base, Some (Some rate) when base > 0. ->
             if rate < 0.7 *. base then
               invalid
                 "throughput regression at %s n=%d: %.0f deliveries/cpu-s is \
                  below 70%% of baseline %.0f"
                 impl size rate base;
             incr compared
           | _ -> ());
          let base_bytes = int_of b "peak_node_unstable_bytes" in
          match fresh b with
          | Some f when base_bytes > 0 ->
            let bytes = int_of f "peak_node_unstable_bytes" in
            if float_of_int bytes > 1.3 *. float_of_int base_bytes then
              invalid
                "buffering regression at %s n=%d: peak unstable bytes %d is \
                 more than 130%% of baseline %d"
                impl size bytes base_bytes;
            incr compared
          | _ -> ())
        brows;
      if !compared = 0 then
        invalid "no (impl, group_size) rows in common with %s" file;
      Printf.printf
        "baseline %s OK: %d shared points within the throughput and \
         buffering gates\n"
        bfile !compared)
    baseline

let () =
  let options =
    "--json [--smoke] [--domains N] [--out FILE] | --validate FILE \
     [--expect-mode MODE] [--baseline FILE]"
  in
  let json = ref false and smoke = ref false in
  let out = ref "BENCH_delivery.json" in
  let validate_file = ref None and expect_mode = ref None in
  let baseline = ref None and domains = ref None in
  let rec parse = function
    | [] -> ()
    | "--json" :: rest -> json := true; parse rest
    | "--smoke" :: rest -> json := true; smoke := true; parse rest
    | "--out" :: file :: rest -> out := file; parse rest
    | "--domains" :: d :: rest ->
      (match int_of_string_opt d with
       | Some d when d >= 1 -> domains := Some d
       | Some _ | None ->
         Printf.eprintf "--domains expects a positive integer, got %s\n" d;
         exit 2);
      parse rest
    | "--validate" :: file :: rest -> validate_file := Some file; parse rest
    | "--expect-mode" :: mode :: rest -> expect_mode := Some mode; parse rest
    | "--baseline" :: file :: rest -> baseline := Some file; parse rest
    | arg :: _ ->
      Printf.eprintf "unknown argument %s (expected %s)\n" arg options;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  match !validate_file with
  | Some file -> validate ?expect_mode:!expect_mode ?baseline:!baseline file
  | None when !json -> emit_json ~domains:!domains ~smoke:!smoke ~out:!out
  | None ->
    Printf.eprintf "usage: %s %s\n" Sys.argv.(0) options;
    exit 2
