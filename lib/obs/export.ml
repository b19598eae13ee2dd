let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* ------------------------------------------------------------------------ *)
(* Chrome trace-event JSON *)

let pid_name names pid =
  match List.assoc_opt pid names with
  | Some n -> n
  | None -> Printf.sprintf "p%d" pid

(* Greedy first-fit lane assignment: spans sorted by start time go to the
   first lane whose previous span has ended, so overlapping spans (several
   in-flight messages at one process) render side by side instead of
   shadowing each other. Lane 0 is reserved for control events (flushes,
   retransmit instants). *)
let assign_lanes spans =
  let lanes : (int, Sim_time.t list ref) Hashtbl.t = Hashtbl.create 8 in
  List.map
    (fun (span : Span.t) ->
      let ends =
        match Hashtbl.find_opt lanes span.Span.pid with
        | Some l -> l
        | None ->
          let l = ref [] in
          Hashtbl.add lanes span.Span.pid l;
          l
      in
      let stop =
        match
          (span.Span.stable_at, span.Span.delivered_at, span.Span.recv_at)
        with
        | Some t, _, _ | None, Some t, _ | None, None, Some t -> t
        | None, None, None -> span.Span.sent_at
      in
      let rec fit i = function
        | [] -> (i, [ stop ])
        | lane_end :: rest ->
          if Sim_time.compare lane_end span.Span.sent_at <= 0 then
            (i, stop :: rest)
          else
            let j, rest' = fit (i + 1) rest in
            (j, lane_end :: rest')
      in
      let lane, ends' = fit 0 !ends in
      ends := ends';
      (span, lane + 1, stop))
    (List.sort
       (fun (a : Span.t) b ->
         match Sim_time.compare a.Span.sent_at b.Span.sent_at with
         | 0 -> Int.compare a.Span.uid b.Span.uid
         | c -> c)
       spans)

let chrome_trace ?(names = []) log =
  let spans = Span.of_log log in
  let flushes = Span.flushes_of_log log in
  let placed = assign_lanes spans in
  let last_ts = Log.fold log ~init:0 ~f:(fun acc r -> max acc r.Event.at) in
  let pids = Hashtbl.create 8 in
  let lane_count = Hashtbl.create 8 in
  let note_pid pid = Hashtbl.replace pids pid () in
  List.iter
    (fun ((span : Span.t), lane, _) ->
      note_pid span.Span.pid;
      note_pid span.Span.origin;
      let prev =
        match Hashtbl.find_opt lane_count span.Span.pid with
        | Some n -> n
        | None -> 0
      in
      if lane > prev then Hashtbl.replace lane_count span.Span.pid lane)
    placed;
  List.iter (fun (f : Span.flush) -> note_pid f.Span.f_pid) flushes;
  Log.iter log (fun r ->
      match r.Event.event with
      | Event.Retransmit { pid; _ } | Event.Gauge_sample { pid; _ } ->
        note_pid pid
      | _ -> ());
  let b = Buffer.create 4096 in
  let first = ref true in
  let event line =
    if !first then first := false else Buffer.add_string b ",\n";
    Buffer.add_string b line
  in
  Buffer.add_string b "{\"traceEvents\":[\n";
  (* metadata: one named track per process, named lanes within it *)
  let sorted_pids =
    Hashtbl.fold (fun pid () acc -> pid :: acc) pids [] |> List.sort Int.compare
  in
  List.iter
    (fun pid ->
      event
        (Printf.sprintf
           "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"%s\"}}"
           pid (escape (pid_name names pid)));
      event
        (Printf.sprintf
           "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"control\"}}"
           pid);
      let lanes =
        match Hashtbl.find_opt lane_count pid with Some n -> n | None -> 0
      in
      for lane = 1 to lanes do
        event
          (Printf.sprintf
             "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"lifecycle-%d\"}}"
             pid lane lane)
      done)
    sorted_pids;
  (* message lifecycle spans with nested phase children *)
  List.iter
    (fun ((span : Span.t), lane, stop) ->
      let ts = Sim_time.to_us span.Span.sent_at in
      let dur = Sim_time.to_us (Sim_time.sub stop span.Span.sent_at) in
      let opt_arg name = function
        | Some v -> Printf.sprintf ",\"%s\":%d" name v
        | None -> ""
      in
      event
        (Printf.sprintf
           "{\"name\":\"msg#%d\",\"cat\":\"lifecycle\",\"ph\":\"X\",\"ts\":%d,\"dur\":%d,\"pid\":%d,\"tid\":%d,\"args\":{\"uid\":%d,\"origin\":%d,\"bytes\":%d%s%s%s}}"
           span.Span.uid ts dur span.Span.pid lane span.Span.uid
           span.Span.origin span.Span.bytes
           (opt_arg "transit_us" (Span.transit_us span))
           (opt_arg "ordering_wait_us" (Span.ordering_wait_us span))
           (opt_arg "stability_lag_us" (Span.stability_lag_us span)));
      let phase name start stop =
        event
          (Printf.sprintf
             "{\"name\":\"%s\",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":%d,\"dur\":%d,\"pid\":%d,\"tid\":%d,\"args\":{\"uid\":%d}}"
             name (Sim_time.to_us start)
             (Sim_time.to_us (Sim_time.sub stop start))
             span.Span.pid lane span.Span.uid)
      in
      (match span.Span.recv_at with
       | Some recv ->
         phase "transit" span.Span.sent_at recv;
         (match span.Span.delivered_at with
          | Some delivered -> phase "ordering-wait" recv delivered
          | None -> ())
       | None -> ());
      (match (span.Span.delivered_at, span.Span.stable_at) with
       | Some delivered, Some stable ->
         phase "buffered-unstable" delivered stable
       | _ -> ()))
    placed;
  (* flush rounds on each process's control lane *)
  List.iter
    (fun (f : Span.flush) ->
      let stop = match f.Span.ended_at with Some t -> t | None -> last_ts in
      event
        (Printf.sprintf
           "{\"name\":\"flush v%d\",\"cat\":\"view\",\"ph\":\"X\",\"ts\":%d,\"dur\":%d,\"pid\":%d,\"tid\":0,\"args\":{\"view_id\":%d%s}}"
           f.Span.f_view_id
           (Sim_time.to_us f.Span.started_at)
           (Sim_time.to_us (Sim_time.sub stop f.Span.started_at))
           f.Span.f_pid f.Span.f_view_id
           (match f.Span.ended_at with
            | Some _ -> ""
            | None -> ",\"unfinished\":true")))
    flushes;
  (* instants and counter series straight off the raw records *)
  Log.iter log (fun r ->
      match r.Event.event with
      | Event.Retransmit { pid; dst; seq; attempt } ->
        event
          (Printf.sprintf
             "{\"name\":\"retransmit\",\"cat\":\"transport\",\"ph\":\"i\",\"ts\":%d,\"pid\":%d,\"tid\":0,\"s\":\"t\",\"args\":{\"dst\":%d,\"seq\":%d,\"attempt\":%d}}"
             (Sim_time.to_us r.Event.at) pid dst seq attempt)
      | Event.Gauge_sample { pid; gauge; value } ->
        event
          (Printf.sprintf
             "{\"name\":\"%s\",\"cat\":\"gauge\",\"ph\":\"C\",\"ts\":%d,\"pid\":%d,\"args\":{\"value\":%d}}"
             (Event.gauge_name gauge)
             (Sim_time.to_us r.Event.at) pid value)
      | _ -> ());
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents b

(* ------------------------------------------------------------------------ *)
(* JSONL *)

let jsonl log =
  let b = Buffer.create 4096 in
  Log.iter log (fun r ->
      let at = Sim_time.to_us r.Event.at in
      let layer = Event.layer_name r.Event.layer in
      let name = Event.event_name r.Event.event in
      (match r.Event.event with
       | Event.Span_send { uid; pid; bytes } ->
         Printf.bprintf b
           "{\"at\":%d,\"layer\":\"%s\",\"event\":\"%s\",\"uid\":%d,\"pid\":%d,\"bytes\":%d}"
           at layer name uid pid bytes
       | Event.Span_recv { uid; pid }
       | Event.Span_queued { uid; pid }
       | Event.Span_delivered { uid; pid }
       | Event.Span_stable { uid; pid } ->
         Printf.bprintf b
           "{\"at\":%d,\"layer\":\"%s\",\"event\":\"%s\",\"uid\":%d,\"pid\":%d}"
           at layer name uid pid
       | Event.View_flush_start { pid; view_id }
       | Event.View_flush_end { pid; view_id } ->
         Printf.bprintf b
           "{\"at\":%d,\"layer\":\"%s\",\"event\":\"%s\",\"pid\":%d,\"view_id\":%d}"
           at layer name pid view_id
       | Event.Retransmit { pid; dst; seq; attempt } ->
         Printf.bprintf b
           "{\"at\":%d,\"layer\":\"%s\",\"event\":\"%s\",\"pid\":%d,\"dst\":%d,\"seq\":%d,\"attempt\":%d}"
           at layer name pid dst seq attempt
       | Event.Gauge_sample { pid; gauge; value } ->
         Printf.bprintf b
           "{\"at\":%d,\"layer\":\"%s\",\"event\":\"%s\",\"pid\":%d,\"gauge\":\"%s\",\"value\":%d}"
           at layer name pid (Event.gauge_name gauge) value
       | Event.Hop_send { uid; pid; dst; kind } ->
         Printf.bprintf b
           "{\"at\":%d,\"layer\":\"%s\",\"event\":\"%s\",\"uid\":%d,\"pid\":%d,\"dst\":%d,\"kind\":\"%s\"}"
           at layer name uid pid dst (Event.hop_kind_name kind));
      Buffer.add_char b '\n');
  Buffer.contents b
