(* Runtime watchdogs: threshold rules over the obs log and a metrics
   snapshot.

   Each rule replays the recorded telemetry — gauge ticks, span phase
   boundaries, hop records, registry counters — and emits a structured
   finding when a threshold trips. lib/obs cannot see the analyzer's
   [Finding] type (the dependency points the other way), so findings here
   are a plain record that [bin/analyze_cli] converts into analyzer JSON,
   giving CI a [--fail-on] gate over the same battery. *)

type severity = Info | Warning | Error

type finding = {
  rule : string;
  severity : severity;
  summary : string;
  evidence : string list;
}

type config = {
  stall_after_us : int;
      (* a delivered message still unstable this long after delivery (and
         before the log ends) counts as stalled *)
  growth_window : int;
      (* consecutive strictly-rising unstable_msgs gauge ticks to alarm *)
  growth_min_value : int;  (* ...provided the gauge ends at least this high *)
  outlier_factor : float;  (* p999 > factor * p50 is an ordering outlier *)
  outlier_floor_us : float;  (* ...and above this absolute floor *)
  outlier_min_samples : int;
}

let default =
  { stall_after_us = 100_000;
    growth_window = 8;
    growth_min_value = 64;
    outlier_factor = 100.0;
    outlier_floor_us = 10_000.0;
    outlier_min_samples = 100 }

(* --- stability-stall ----------------------------------------------------- *)

let stability_stall cfg log =
  let last_ts = Log.fold log ~init:Sim_time.zero ~f:(fun acc r ->
      if Sim_time.compare acc r.Event.at < 0 then r.Event.at else acc)
  in
  let stalled =
    List.filter
      (fun (s : Span.t) ->
        match (s.Span.delivered_at, s.Span.stable_at) with
        | Some d, None ->
          Sim_time.to_us (Sim_time.sub last_ts d) > cfg.stall_after_us
        | _ -> false)
      (Span.of_log log)
  in
  match stalled with
  | [] -> []
  | _ ->
    let sample =
      List.filteri (fun i _ -> i < 5) stalled
      |> List.map (fun (s : Span.t) ->
             Printf.sprintf "msg#%d at p%d delivered @%dus, never stable"
               s.Span.uid s.Span.pid
               (Sim_time.to_us
                  (match s.Span.delivered_at with
                   | Some d -> d
                   | None -> Sim_time.zero)))
    in
    [ { rule = "stability-stall";
        severity = Warning;
        summary =
          Printf.sprintf
            "%d delivered message(s) still unstable %dus after delivery — \
             gossip or minima propagation has stalled"
            (List.length stalled) cfg.stall_after_us;
        evidence = sample } ]

(* --- unbounded-buffer-growth --------------------------------------------- *)

let buffer_growth cfg log =
  (* per-pid unstable_msgs gauge series, in tick order *)
  let series : (int, int list ref) Hashtbl.t = Hashtbl.create 16 in
  Log.iter log (fun r ->
      match r.Event.event with
      | Event.Gauge_sample { pid; gauge = Event.Unstable_msgs; value } ->
        let l =
          match Hashtbl.find_opt series pid with
          | Some l -> l
          | None ->
            let l = ref [] in
            Hashtbl.add series pid l;
            l
        in
        l := value :: !l  (* newest first *)
      | _ -> ());
  let growing =
    Hashtbl.fold
      (fun pid l acc ->
        let newest_first = !l in
        let rec rising n = function
          | a :: (b :: _ as rest) when n > 1 ->
            if a > b then rising (n - 1) rest else false
          | _ :: _ -> n <= 1
          | [] -> false
        in
        match newest_first with
        | final :: _
          when final >= cfg.growth_min_value
               && List.length newest_first >= cfg.growth_window
               && rising cfg.growth_window newest_first ->
          (pid, final) :: acc
        | _ -> acc)
      series []
    |> List.sort compare
  in
  match growing with
  | [] -> []
  | _ ->
    [ { rule = "buffer-growth";
        severity = Warning;
        summary =
          Printf.sprintf
            "unstable-message buffer rising for %d straight tick(s) at %d \
             node(s) — stability is not keeping up with send rate"
            cfg.growth_window (List.length growing);
        evidence =
          List.map
            (fun (pid, final) ->
              Printf.sprintf "p%d ended at %d buffered messages" pid final)
            growing } ]

(* --- ordering-wait p999 outlier ------------------------------------------ *)

let ordering_outlier cfg log =
  let h = Histo.create () in
  List.iter
    (fun (s : Span.t) ->
      match Span.ordering_wait_us s with
      | Some w -> Histo.add h (float_of_int w)
      | None -> ())
    (Span.of_log log);
  if Histo.count h < cfg.outlier_min_samples then []
  else
    let p50 = Histo.percentile h 0.5 in
    let p999 = Histo.percentile h 0.999 in
    if p999 > cfg.outlier_factor *. Float.max p50 1.0
       && p999 > cfg.outlier_floor_us
    then
      [ { rule = "ordering-outlier";
          severity = Warning;
          summary =
            Printf.sprintf
              "ordering-wait p999 %.0fus is %.0fx p50 (%.0fus) over %d \
               samples — a few messages are blocked far behind the rest"
              p999
              (p999 /. Float.max p50 1.0)
              p50 (Histo.count h);
          evidence = [] } ]
    else []

(* --- copy-conservation and duplicate-copy-rate --------------------------- *)

let hop_census log =
  let origins = ref 0 and forwards = ref 0 and resends = ref 0 in
  Log.iter log (fun r ->
      match r.Event.event with
      | Event.Hop_send { kind = Event.Origin_copy; _ } -> incr origins
      | Event.Hop_send { kind = Event.Forward_copy; _ } -> incr forwards
      | Event.Hop_send { kind = Event.Resend_copy; _ } -> incr resends
      | _ -> ());
  (!origins, !forwards, !resends)

(* The registry counters and the hop records are written by the same call
   sites, so on a complete log they must agree exactly. A mismatch means an
   instrumentation path lost an increment (the watchdog the forward-copy
   mutation test convicts with). Skipped when the ring dropped records or
   no snapshot is supplied. *)
let copy_conservation log snapshot =
  match snapshot with
  | None -> []
  | Some _ when Log.dropped log > 0 -> []
  | Some snap ->
    let origins, forwards, resends = hop_census log in
    let checks =
      [ ("origin_copies", origins); ("forward_copies", forwards);
        ("resend_copies", resends) ]
    in
    let broken =
      List.filter_map
        (fun (name, from_log) ->
          let from_registry =
            Registry.counter_total snap ~layer:Event.Ordering ~name
          in
          if from_registry <> from_log then
            Some
              (Printf.sprintf "%s: registry %d vs %d hop record(s) in log"
                 name from_registry from_log)
          else None)
        checks
    in
    if broken = [] then []
    else
      [ { rule = "copy-conservation";
          severity = Error;
          summary =
            Printf.sprintf
              "%d metric counter(s) disagree with the hop records — an \
               instrumentation increment was dropped"
              (List.length broken);
          evidence = broken } ]

(* reported as info only: PC full-mesh forwarding is designed to flood
   duplicates *)
let duplicate_copy_rate log =
  (* copies beyond the first to reach each (uid, dst) are duplicates *)
  let primary = ref 0 and duplicate = ref 0 in
  let reached : (int * int, unit) Hashtbl.t = Hashtbl.create 256 in
  let hops = ref [] in
  Log.iter log (fun r ->
      match r.Event.event with
      | Event.Hop_send { uid; dst; _ } -> hops := (r.Event.at, uid, dst) :: !hops
      | _ -> ());
  List.iter
    (fun (_, uid, dst) ->
      if Hashtbl.mem reached (uid, dst) then incr duplicate
      else begin
        Hashtbl.add reached (uid, dst) ();
        incr primary
      end)
    (List.sort compare (List.rev !hops));
  if !primary = 0 then []
  else
    let rate = float_of_int !duplicate /. float_of_int !primary in
    if !duplicate = 0 then []
    else
      [ { rule = "duplicate-copy-rate";
          severity = Info;
          summary =
            Printf.sprintf
              "%d duplicate cop%s on top of %d primary cop%s (rate %.2f) — \
               redundant dissemination traffic"
              !duplicate
              (if !duplicate = 1 then "y" else "ies")
              !primary
              (if !primary = 1 then "y" else "ies")
              rate;
          evidence = [] } ]

let run ?snapshot log =
  stability_stall default log
  @ buffer_growth default log
  @ ordering_outlier default log
  @ copy_conservation log snapshot
  @ duplicate_copy_rate log
