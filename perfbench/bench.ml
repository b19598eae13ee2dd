(* Benchmark program: one subcommand per kind of pass, each printing one
   JSON object on its last line. [run.py] drives it.

     bench.exe setup --workload W --seed N
     bench.exe pass  --workload W --seed N --level plain|metrics|traced
                     [--chaos queue|forwarding]
     bench.exe selftest

   A traced pass writes its spans to _perfbench/spans-W.tsv under the
   current directory.

   A pass whose deliveries violate the workload's ordering contract prints
   the violation on stderr and exits 3 without printing numbers. *)

open Harness
module Delivery_queue = Repro_catocs.Delivery_queue

let json fields =
  let field (k, v) =
    let v =
      match v with
      | I i -> string_of_int i
      | F f when Float.is_finite f -> Printf.sprintf "%.17g" f
      | F _ -> "null"
      | S s -> Printf.sprintf "%S" s
    in
    Printf.sprintf "%S: %s" k v
  in
  "{" ^ String.concat ", " (List.map field fields) ^ "}"

let int_of fields k =
  match List.assoc_opt k fields with Some (I i) -> i | _ -> 0

let float_of fields k =
  match List.assoc_opt k fields with
  | Some (F f) -> f
  | Some (I i) -> Float.of_int i
  | _ -> 0.

let ratio a b = if b = 0. then 0. else a /. b

(* --- set-up timing ------------------------------------------------------- *)

(* [setup_reps] warm set-ups, after one unreported cold one (first touch of
   the fresh heap); each sample is the set-up's wall time in seconds,
   rescaled to the nominal machine (see [Harness.Reference]) *)
let setup_reps = 9

let setup_times w =
  let recs = recorders w in
  let once () =
    Gc.full_major ();
    let _env, ns = setup w Plain recs in
    Float.of_int (Reference.normalize ns) /. 1e9
  in
  ignore (once ());
  List.init setup_reps (fun _ -> once ())

(* --- traced pass: per-layer figures --------------------------------------- *)

type log_figures = {
  waits : int array;  (* delivered - received per copy, sorted *)
  delayed : int array;  (* the nonzero ones *)
  retransmits : int;
  mean_queue_depth : float;  (* Delivery_queue occupancy per member sample *)
}

(* ordering waits, retransmissions and sampled queue depth from the obs log *)
let log_figures log =
  let max_uid = ref 0 and max_pid = ref 0 and retransmits = ref 0 in
  let depth_sum = ref 0 and depth_samples = ref 0 in
  Repro_obs.Log.iter log (fun r ->
      match r.Event.event with
      | Event.Span_recv { uid; pid } | Event.Span_delivered { uid; pid } ->
        max_uid := max !max_uid uid;
        max_pid := max !max_pid pid
      | Event.Retransmit _ -> incr retransmits
      | Event.Gauge_sample { gauge = Event.Queue_depth; value; _ } ->
        depth_sum := !depth_sum + value;
        incr depth_samples
      | _ -> ());
  let np = !max_pid + 1 in
  let recv = Array.make ((!max_uid + 1) * np) (-1) in
  let waits = Ivec.create 1024 in
  Repro_obs.Log.iter log (fun r ->
      match r.Event.event with
      | Event.Span_recv { uid; pid } ->
        let k = (uid * np) + pid in
        if recv.(k) < 0 then recv.(k) <- r.Event.at
      | Event.Span_delivered { uid; pid } ->
        let k = (uid * np) + pid in
        if recv.(k) >= 0 then Ivec.push waits (r.Event.at - recv.(k))
      | _ -> ());
  let waits = Ivec.to_array waits in
  Array.sort compare waits;
  { waits;
    delayed = Array.of_list (List.filter (fun x -> x > 0) (Array.to_list waits));
    retransmits = !retransmits;
    mean_queue_depth = ratio (Float.of_int !depth_sum) (Float.of_int !depth_samples) }

let trace_layers env base reg (times : run_times) =
  let w = env.w in
  let sp = Option.get env.spans in
  let log = Option.get env.log in
  if Repro_obs.Log.dropped log > 0 then
    failwith "trace log overflowed: raise its capacity";
  let deliveries = float_of base "deliveries" in
  let multicasts = float_of base "multicasts" in
  let per_delivery x = ratio x deliveries in
  let run_ns = Float.of_int times.wall_ns in
  let tot k = Float.of_int (Spans.total sp k) in
  let cnt k = Float.of_int (Spans.count sp k) in
  let clock = Replay.clock_ns () in
  (* span figures *)
  let send_self = tot Multicast -. Float.of_int sp.Spans.nested_ns in
  let send_words = ref 0 in
  for i = 0 to Ivec.length sp.Spans.kind - 1 do
    if Ivec.get sp.Spans.kind i = span_code Multicast then
      send_words := !send_words + Ivec.get sp.Spans.aux i
  done;
  let codec_total = tot Encode +. tot Decode in
  let deliver_total = tot Deliver in
  let recv = run_ns -. send_self -. deliver_total -. codec_total in
  let span_ns k = if cnt k = 0. then 0. else Float.max 0. ((tot k /. cnt k) -. clock) in
  (* log figures *)
  let lf = log_figures log in
  let total_order =
    match w.Workload.config.Config.ordering with
    | Config.Total_sequencer | Config.Total_lamport -> true
    | Config.Fifo | Config.Causal -> false
  in
  let gossip = float_of reg "gossip_msgs" in
  let gossip_rounds = ratio gossip (Float.of_int (max 1 (w.Workload.n - 1))) in
  let copies =
    float_of reg "origin_copies" +. float_of reg "forward_copies"
    +. float_of reg "drain_copies" +. float_of reg "resend_copies"
  in
  (* replays at this workload's shape *)
  let n = w.Workload.n in
  let mean_blocked = ratio (Float.of_int env.blocked_sum) (Float.of_int env.blocked_samples) in
  let mean_inflight =
    ratio (Float.of_int env.inflight_sum) (Float.of_int env.inflight_samples)
  in
  (* replay backlogs: a shuffle window of twice the mean delivery-queue
     depth; the sequencer queue holds the rest of what was blocked *)
  let window = max 1 (int_of_float (Float.round (2. *. lf.mean_queue_depth))) in
  let seq_backlog =
    max 0 (int_of_float (Float.round (mean_blocked -. lf.mean_queue_depth)))
  in
  let queue_mode =
    if Config.pc_active w.Workload.config then Delivery_queue.Fifo_gap
    else
      match w.Workload.config.Config.ordering with
      | Config.Fifo | Config.Total_lamport -> Delivery_queue.Fifo_gap
      | Config.Causal | Config.Total_sequencer -> Delivery_queue.Causal_full
  in
  let heap_ns = Replay.heap_ns ~backlog:(int_of_float mean_inflight) in
  let queue_full = Replay.queue_ns Delivery_queue.Causal_full ~n ~window in
  let queue_gap = Replay.queue_ns Delivery_queue.Fifo_gap ~n ~window in
  let queue_ns =
    match queue_mode with
    | Delivery_queue.Causal_full -> queue_full
    | Delivery_queue.Fifo_gap -> queue_gap
  in
  let sparse =
    match w.Workload.config.Config.stability_clock with
    | Config.Sparse_clock -> true
    | Config.Dense_clock -> false
  in
  let row_ns = Replay.update_row_ns ~sparse ~n in
  let uses_codec = cnt Encode > 0. in
  (* the frame mix the replay copies: data frames come in runs (one member
     framing one message for each overlay child); the rest is control *)
  let data_encodes = ref 0 and data_bytes = ref 0 in
  let runs = ref 0 and last_id = ref (-1) in
  for i = 0 to Ivec.length sp.Spans.kind - 1 do
    if Ivec.get sp.Spans.kind i = span_code Encode then begin
      let id = Ivec.get sp.Spans.id i in
      if id >= 0 then begin
        incr data_encodes;
        data_bytes := !data_bytes + Ivec.get sp.Spans.aux i;
        if id <> !last_id then incr runs
      end;
      last_id := id
    end
  done;
  let copies_per_run = ratio (Float.of_int !data_encodes) (Float.of_int !runs) in
  let control_encodes = cnt Encode -. Float.of_int !data_encodes in
  let enc_replay, dec_replay =
    if uses_codec then
      Replay.codec_ns ~n ~copies:(int_of_float (Float.round copies_per_run))
        ~gossip_share:(ratio control_encodes (cnt Encode))
    else (0., 0.)
  in
  let seq_ns =
    if total_order then Replay.sequencer_ns ~backlog:seq_backlog
    else 0.
  in
  (* deterministic operation counts *)
  let heap_ops = float_of base "engine_messages_sent" +. multicasts +. gossip_rounds in
  let queue_ops = deliveries -. multicasts in
  let row_ops =
    gossip +. gossip_rounds
    +. (if Config.pc_active w.Workload.config then 0. else deliveries)
  in
  let share ns ops = ratio (ns *. ops) run_ns in
  let predicted =
    [ ("Heap (event queue)", heap_ns, heap_ops);
      ((match queue_mode with
        | Delivery_queue.Causal_full -> "Delivery_queue Causal_full"
        | Delivery_queue.Fifo_gap -> "Delivery_queue Fifo_gap"),
       queue_ns, queue_ops);
      ((if sparse then "Sparse_matrix_clock row" else "Matrix_clock row"), row_ns, row_ops);
      ("Total_order.Sequencer_queue", seq_ns, if total_order then deliveries else 0.) ]
  in
  let predicted_share =
    List.fold_left (fun acc (_, ns, ops) -> acc +. share ns ops) 0. predicted
  in
  let measured_share = ratio (send_self +. deliver_total +. codec_total) run_ns in
  let unexplained = 1. -. measured_share -. predicted_share in
  (* the predicted-vs-measured table *)
  let pr fmt = Printf.printf fmt in
  pr "# where Engine.run goes: %s, %.3f s traced wall time, %.0f deliveries\n"
    (Workload.name w.Workload.kind) (run_ns /. 1e9) deliveries;
  pr "# %-30s %12s %10s %10s\n" "layer (replayed)" "ops" "ns/op" "share";
  List.iter
    (fun (name, ns, ops) ->
      pr "# %-30s %12.0f %10.1f %9.1f%%\n" name ops ns (100. *. share ns ops))
    predicted;
  pr "# %-30s %12s %10s %9.1f%%\n" "predicted total" "" "" (100. *. predicted_share);
  pr "# %-30s %12s %10s %10s\n" "layer (spanned)" "spans" "ns/span" "share";
  let spanned name k total =
    pr "# %-30s %12.0f %10.1f %9.1f%%\n" name (cnt k) (ratio total (cnt k))
      (100. *. ratio total run_ns)
  in
  spanned "Stack.multicast (self)" Multicast send_self;
  spanned "deliver callbacks" Deliver deliver_total;
  spanned "Wire_codec.encode" Encode (tot Encode);
  spanned "Wire_codec.decode" Decode (tot Decode);
  if uses_codec then
    pr "# %-30s %12s %10s %9.1f%%  (replayed %.0f/%.0f ns)\n" "Wire_codec replay prediction" "" ""
      (100. *. ratio ((enc_replay *. cnt Encode) +. (dec_replay *. cnt Decode)) run_ns)
      enc_replay dec_replay;
  pr "# %-30s %12s %10s %9.1f%%\n" "measured (spans) total" "" "" (100. *. measured_share);
  pr "# %-30s %12s %10s %9.1f%%\n" "unexplained" "" "" (100. *. unexplained);
  pr "# replayed Delivery_queue at n=%d window=%d: Causal_full %.1f ns, Fifo_gap %.1f ns\n"
    n window queue_full queue_gap;
  let p50 a = percentile a 0.5 /. 1000. in
  let lag_ms k = float_of reg k /. 1000. in
  [ ("sim.events_per_delivery", F (per_delivery (float_of base "engine_messages_delivered")));
    ("sim.heap_ns_per_op", F heap_ns);
    ("stack.send_us_per_multicast", F (ratio send_self (cnt Multicast) /. 1000.));
    ("stack.send_alloc_words_per_multicast", F (ratio (Float.of_int !send_words) (cnt Multicast)));
    ("stack.recv_us_per_delivery", F (per_delivery recv /. 1000.));
    ("stack.setup_us_per_member", F (ratio (tot Create) (cnt Create) /. 1000.));
    ("stack.unexplained_frac", F unexplained);
    ("transport.retransmits_per_delivery", F (per_delivery (Float.of_int lf.retransmits)));
    ("transport.data_copy_frac", F (ratio copies (float_of base "packets")));
    ("wire_codec.encode_ns", F (span_ns Encode));
    ("wire_codec.decode_ns", F (span_ns Decode));
    ("wire_codec.run_share", F (ratio codec_total run_ns));
    ("wire_codec.bytes_per_frame",
     F (ratio (Float.of_int !data_bytes) (Float.of_int !data_encodes)));
    ("delivery_queue.add_take_ns", F queue_ns);
    ("delivery_queue.delayed_frac", F (per_delivery (float_of base "delayed_messages")));
    ("delivery_queue.wait_p50_ms", F (p50 lf.delayed));
    ("delivery_queue.peak_blocked", I env.peak_blocked);
    ("pc_causal.forwards_per_delivery", F (per_delivery (float_of reg "forward_copies")));
    ("pc_causal.duplicate_frac",
     F (ratio (float_of reg "pc_duplicates") (float_of base "data_received")));
    ("total_order.orders_per_delivery",
     F
       (if total_order then
          per_delivery
            (float_of base "control_messages" -. float_of base "flush_messages" -. gossip)
        else 0.));
    ("total_order.queue_ns", F seq_ns);
    ("total_order.wait_p50_ms", F (if total_order then p50 lf.waits else 0.));
    ("stability.gossip_per_delivery", F (per_delivery gossip));
    ("stability.minima_advances_per_delivery", F (per_delivery (float_of reg "minima_advances")));
    ("stability.update_row_ns", F row_ns);
    ("stability.lag_p50_ms", F (lag_ms "stability_lag_p50_us"));
    ("stability.lag_p99_ms", F (lag_ms "stability_lag_p99_us"));
    ("stability.peak_unstable_msgs", I (int_of base "peak_unstable_msgs"));
    ("view.view_changes", I (int_of reg "view_changes"));
    ("view.flushes", I (int_of reg "flushes"));
    ("view.suppressed_ms", F (float_of base "suppressed_us" /. 1000.));
    ("view.outage_ms_max", F (float_of base "outage_ms_max"));
    ("view.dropped_at_view_change", I (int_of base "dropped_at_view_change")) ]

(* --- passes ------------------------------------------------------------- *)

let set_chaos = function
  | None -> ()
  | Some "queue" -> Delivery_queue.chaos_disable_causal_check := true
  | Some "forwarding" -> Repro_catocs.Pc_causal.chaos_disable_forwarding := true
  | Some other -> failwith ("unknown --chaos " ^ other)

let spans_path kind = Filename.concat "_perfbench" ("spans-" ^ Workload.name kind ^ ".tsv")

(* Runs one pass; [Error msg] when the ordering checks or the steady-state
   gates reject it. *)
let pass ?(small = false) kind ~seed ~level =
  let w = Workload.make ~small kind ~seed in
  let recs = recorders w in
  let env, _setup_ns = setup w level recs in
  schedule env;
  let times = run env in
  match results env times with
  | exception Violation msg -> Error ("ordering violation: " ^ msg)
  | base ->
    let reg = match level with Plain -> [] | With_metrics | Traced -> registry_results env in
    (* bytes of the data copies only (origin, forward, drain and resend),
       on every workload: encoded data-frame bytes on the Encoded wire,
       otherwise the structural model (ordering headers plus payloads) *)
    let wire_bytes =
      match (level, w.Workload.config.Config.wire_format) with
      | Plain, _ -> []
      | (With_metrics | Traced), Config.Encoded -> [ ("wire_bytes_total", I env.data_frame_bytes) ]
      | (With_metrics | Traced), Config.Structural ->
        let copies =
          int_of reg "origin_copies" + int_of reg "forward_copies"
          + int_of reg "drain_copies" + int_of reg "resend_copies"
        in
        [ ("wire_bytes_total",
           I (int_of base "header_bytes" + (copies * w.Workload.config.Config.payload_bytes))) ]
    in
    let multicasts = int_of base "multicasts" in
    let gate =
      if int_of base "peak_unstable_msgs" >= multicasts then
        Some "truncated: a member's peak unstable count reached every multicast sent"
      else
        match (w.Workload.faults, int_of base "missing") with
        | [], m when m > 0 ->
          Some (Printf.sprintf "fault-free run ended its drain with %d required deliveries missing" m)
        | _ ->
          (match level with
           | With_metrics | Traced when int_of reg "stability_lag_count" = 0 ->
             Some "not steady: the stability-lag histogram is empty"
           | Plain | With_metrics | Traced -> None)
    in
    match gate with
    | Some msg -> Error msg
    | None ->
      let layers =
        match level with
        | Traced ->
          let fields = trace_layers env base reg times in
          if not (Sys.file_exists "_perfbench") then Sys.mkdir "_perfbench" 0o755;
          Spans.write (Option.get env.spans) (spans_path kind);
          fields
        | Plain | With_metrics -> []
      in
      Ok (base @ reg @ wire_bytes @ layers)

(* --- command line --------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: bench.exe (setup|pass) --workload W --seed N \
     [--level plain|metrics|traced] [--chaos queue|forwarding] | selftest";
  exit 2

let rec parse_args acc = function
  | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
    parse_args ((String.sub k 2 (String.length k - 2), v) :: acc) rest
  | [] -> acc
  | _ -> usage ()

(* Self-test (run by [dune runtest]; silent unless it fails): each
   workload, shrunk, passes clean; each chaos hook makes its workload's
   oracle convict. *)
let selftest () =
  let expect_ok kind =
    match pass ~small:true kind ~seed:1 ~level:With_metrics with
    | Ok _ -> ()
    | Error msg -> failwith (Workload.name kind ^ " rejected: " ^ msg)
  in
  let expect_conviction kind hook flag =
    hook := true;
    let r = pass ~small:true kind ~seed:1 ~level:Plain in
    hook := false;
    match r with
    | Error _ -> ()
    | Ok _ -> failwith (Workload.name kind ^ " passed under " ^ flag)
  in
  List.iter expect_ok Workload.all;
  expect_conviction Workload.Bss_dense Delivery_queue.chaos_disable_causal_check
    "Delivery_queue.chaos_disable_causal_check";
  expect_conviction Workload.Pc_encoded Repro_catocs.Pc_causal.chaos_disable_forwarding
    "Pc_causal.chaos_disable_forwarding"

let () =
  match Array.to_list Sys.argv with
  | _ :: "selftest" :: _ -> selftest ()
  | _ :: cmd :: rest ->
    let args = parse_args [] rest in
    let get k = List.assoc_opt k args in
    let kind =
      match Option.bind (get "workload") Workload.of_name with
      | Some k -> k
      | None -> usage ()
    in
    let seed =
      match Option.bind (get "seed") int_of_string_opt with Some s -> s | None -> usage ()
    in
    (match cmd with
     | "setup" ->
       let ts = setup_times (Workload.make kind ~seed) in
       print_endline
         (Printf.sprintf "{\"setup_s\": [%s]}"
            (String.concat ", " (List.map (Printf.sprintf "%.17g") ts)))
     | "pass" ->
       let level =
         match get "level" with
         | Some "plain" | None -> Plain
         | Some "metrics" -> With_metrics
         | Some "traced" -> Traced
         | Some _ -> usage ()
       in
       set_chaos (get "chaos");
       (match pass kind ~seed ~level with
        | Ok fields -> print_endline (json fields)
        | Error msg ->
          prerr_endline (Workload.name kind ^ ": " ^ msg);
          exit 3)
     | _ -> usage ())
  | _ -> usage ()
