(* Telemetry subsystem tests: ring-buffer log semantics, exact span
   partitioning (qcheck), the bounded histogram against exact percentiles
   ([Stats.percentile]), structured-event ingestion into the analyzer, and
   golden-file exporter output for the Figure 1-4 scenario traces. *)

module Log = Repro_obs.Log
module Event = Repro_obs.Event
module Span = Repro_obs.Span
module Export = Repro_obs.Export
module Histo = Repro_obs.Histo
module Telemetry = Repro_experiments.Telemetry
module Exec = Repro_analyze.Exec

(* --- log ring buffer -------------------------------------------------------- *)

let test_log_ring () =
  let log = Log.create ~cap:8 () in
  for i = 0 to 19 do
    Log.span_send log ~at:i ~uid:i ~pid:0 ~bytes:8
  done;
  Alcotest.(check int) "length capped" 8 (Log.length log);
  Alcotest.(check int) "dropped oldest" 12 (Log.dropped log);
  let uids =
    let acc = ref [] in
    Log.iter log (fun r ->
        match r.Event.event with
        | Event.Span_send { uid; _ } -> acc := uid :: !acc
        | _ -> ());
    List.rev !acc
  in
  Alcotest.(check (list int)) "chronological tail window"
    [ 12; 13; 14; 15; 16; 17; 18; 19 ] uids

let test_log_disabled () =
  let log = Log.create ~enabled:false () in
  Log.span_send log ~at:1 ~uid:0 ~pid:0 ~bytes:8;
  Log.span_delivered log ~at:2 ~uid:0 ~pid:0;
  Log.gauge log ~at:3 ~pid:0 Event.Queue_depth 4;
  Alcotest.(check int) "disabled log records nothing" 0 (Log.length log);
  Log.set_enabled log true;
  Log.span_send log ~at:4 ~uid:1 ~pid:0 ~bytes:8;
  Alcotest.(check int) "re-enabled log records" 1 (Log.length log)

(* --- span assembly and the exact latency partition -------------------------- *)

(* Random per-copy lifecycles: each message i is sent at [t0], and each of
   two receivers gets the copy after its own transit and ordering delays.
   The partition transit + ordering-wait = end-to-end must be exact for
   every assembled span. *)
let span_partition_prop timings =
  let log = Log.create () in
  List.iteri
    (fun uid (t0, d_transit, d_wait) ->
      Log.span_send log ~at:t0 ~uid ~pid:0 ~bytes:64;
      List.iter
        (fun pid ->
          let recv = t0 + (d_transit * (pid + 1)) in
          let deliver = recv + (d_wait * (pid + 1)) in
          Log.span_recv log ~at:recv ~uid ~pid;
          Log.span_delivered log ~at:deliver ~uid ~pid)
        [ 0; 1 ])
    timings;
  let spans = Span.of_log log in
  List.length spans = 2 * List.length timings
  && List.for_all
       (fun sp ->
         match
           (Span.transit_us sp, Span.ordering_wait_us sp, Span.end_to_end_us sp)
         with
         | Some t, Some o, Some e -> t >= 0 && o >= 0 && t + o = e
         | _ -> false)
       spans

let span_partition_qcheck =
  QCheck.Test.make ~count:200 ~name:"span partition is exact"
    QCheck.(list (triple small_nat small_nat small_nat))
    span_partition_prop

(* The same invariant on a real protocol run. *)
let test_span_partition_fig1 () =
  let scenario = Option.get (Telemetry.find "fig1") in
  let log, _, _ = scenario.Telemetry.run () in
  let spans = Span.of_log log in
  Alcotest.(check bool) "spans found" true (spans <> []);
  List.iter
    (fun sp ->
      match
        (Span.transit_us sp, Span.ordering_wait_us sp, Span.end_to_end_us sp)
      with
      | Some t, Some o, Some e ->
        Alcotest.(check int)
          (Printf.sprintf "uid %d at pid %d" sp.Span.uid sp.Span.pid)
          e (t + o)
      | _ -> Alcotest.fail "fig1 span missing lifecycle timestamps")
    spans

let test_span_incomplete () =
  let log = Log.create () in
  Log.span_send log ~at:10 ~uid:7 ~pid:1 ~bytes:32;
  Log.span_recv log ~at:15 ~uid:7 ~pid:2;
  (* no delivery: the run ended with the copy still queued *)
  Log.span_delivered log ~at:16 ~uid:99 ~pid:2;
  (* delivery whose send fell off the ring: dropped entirely *)
  match Span.of_log log with
  | [ sp ] ->
    Alcotest.(check int) "uid" 7 sp.Span.uid;
    Alcotest.(check (option int)) "transit" (Some 5) (Span.transit_us sp);
    Alcotest.(check (option int)) "no e2e" None (Span.end_to_end_us sp);
    Alcotest.(check (option int)) "no lag" None (Span.stability_lag_us sp)
  | spans ->
    Alcotest.failf "expected exactly one span, got %d" (List.length spans)

(* --- histogram vs exact percentiles ----------------------------------------- *)

let histo_percentile_prop values =
  let values = List.map (fun v -> float_of_int (1 + v)) values in
  let h = Histo.create () in
  List.iter (Histo.add h) values;
  let samples = Array.of_list values in
  List.for_all
    (fun p ->
      let exact = Stats.percentile samples p in
      let est = Histo.percentile h p in
      (* the histogram midpoint is within its advertised relative error *)
      Float.abs (est -. exact) <= (Histo.max_relative_error *. exact) +. 1e-9)
    [ 0.0; 0.5; 0.9; 0.99; 1.0 ]

let histo_percentile_qcheck =
  QCheck.Test.make ~count:300
    ~name:"histo percentiles within 3.125% of exact summary"
    QCheck.(list_of_size Gen.(1 -- 400) (int_bound 9_999_999))
    histo_percentile_prop

let histo_merge_prop (a, b) =
  let a = List.map (fun v -> float_of_int (1 + v)) a in
  let b = List.map (fun v -> float_of_int (1 + v)) b in
  let ha = Histo.create () and hb = Histo.create () and hc = Histo.create () in
  List.iter (Histo.add ha) a;
  List.iter (Histo.add hb) b;
  List.iter (Histo.add hc) (a @ b);
  Histo.merge ha hb;
  Histo.count ha = Histo.count hc
  && Histo.buckets ha = Histo.buckets hc
  && Float.abs (Histo.sum ha -. Histo.sum hc) <= 1e-6 *. (1. +. Histo.sum hc)
  && (a @ b = [] || (Histo.min ha = Histo.min hc && Histo.max ha = Histo.max hc))

let histo_merge_qcheck =
  QCheck.Test.make ~count:300 ~name:"histo merge = histogram of concatenation"
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 200) (int_bound 999_999))
        (list_of_size Gen.(0 -- 200) (int_bound 999_999)))
    histo_merge_prop

let test_histo_extremes () =
  let h = Histo.create () in
  List.iter (Histo.add h) [ 3.0; 1000.0; 42.0 ];
  Alcotest.(check (float 0.0)) "p0 exact min" 3.0 (Histo.percentile h 0.0);
  Alcotest.(check (float 0.0)) "p100 exact max" 1000.0 (Histo.percentile h 1.0);
  Alcotest.(check int) "count" 3 (Histo.count h)

(* --- structured-event ingestion into the analyzer ---------------------------- *)

let test_exec_of_log_fig1 () =
  let scenario = Option.get (Telemetry.find "fig1") in
  let log, names, _ = scenario.Telemetry.run () in
  let exec = Exec.of_log ~label:"fig1 obs" ~ordering:Exec.Causal_order ~names log in
  Alcotest.(check int) "four multicasts" 4 (List.length exec.Exec.sends);
  Alcotest.(check int) "all copies delivered" 12
    (List.length exec.Exec.deliveries);
  Alcotest.(check string) "names mapped" "Q" (Exec.process_name exec 1)

let test_exec_of_log_unknown_delivery () =
  let log = Log.create () in
  Log.span_delivered log ~at:5 ~uid:3 ~pid:0;
  Alcotest.check_raises "unknown send rejected"
    (Invalid_argument "Exec.of_log: delivery of unknown message uid 3 at pid 0")
    (fun () -> ignore (Exec.of_log log))

(* --- golden exporter output -------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_golden ~golden actual =
  let expected = read_file golden in
  if String.equal expected actual then ()
  else begin
    let exp_lines = String.split_on_char '\n' expected in
    let act_lines = String.split_on_char '\n' actual in
    let rec first_diff i = function
      | e :: es, a :: as_ ->
        if String.equal e a then first_diff (i + 1) (es, as_)
        else Some (i, e, a)
      | [], a :: _ -> Some (i, "<eof>", a)
      | e :: _, [] -> Some (i, e, "<eof>")
      | [], [] -> None
    in
    match first_diff 1 (exp_lines, act_lines) with
    | Some (line, e, a) ->
      Alcotest.failf
        "%s: exporter output diverged at line %d\n  golden: %s\n  actual: %s\n\
         (regenerate with: dune exec bin/trace_cli.exe -- export <scenario>)"
        golden line e a
    | None -> Alcotest.failf "%s: outputs differ only in line endings" golden
  end

let golden_case name =
  Alcotest.test_case name `Quick (fun () ->
      let scenario = Option.get (Telemetry.find name) in
      let log, names, _ = scenario.Telemetry.run () in
      check_golden
        ~golden:(Printf.sprintf "golden/%s_chrome.json" name)
        (Export.chrome_trace ~names log);
      check_golden
        ~golden:(Printf.sprintf "golden/%s.jsonl" name)
        (Export.jsonl log))

let () =
  Alcotest.run "repro_obs"
    [
      ( "log",
        [ Alcotest.test_case "ring overwrites oldest" `Quick test_log_ring;
          Alcotest.test_case "disabled path records nothing" `Quick
            test_log_disabled ] );
      ( "spans",
        [ QCheck_alcotest.to_alcotest span_partition_qcheck;
          Alcotest.test_case "fig1 partition exact" `Quick
            test_span_partition_fig1;
          Alcotest.test_case "incomplete lifecycles" `Quick
            test_span_incomplete ] );
      ( "histo",
        [ QCheck_alcotest.to_alcotest histo_percentile_qcheck;
          QCheck_alcotest.to_alcotest histo_merge_qcheck;
          Alcotest.test_case "exact extremes" `Quick test_histo_extremes ] );
      ( "analyze",
        [ Alcotest.test_case "fig1 log ingested" `Quick test_exec_of_log_fig1;
          Alcotest.test_case "unknown delivery rejected" `Quick
            test_exec_of_log_unknown_delivery ] );
      ( "golden",
        List.map golden_case
          [ "fig1"; "fig1-pc"; "fig2-shop-floor"; "fig3-fire-alarm";
            "fig4-trading" ] );
    ]
