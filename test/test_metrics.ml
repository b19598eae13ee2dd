(* Protocol-metrics registry, causal-path tracing and watchdog tests: cell
   semantics and snapshot/merge algebra, the fig1 metric inventory (which
   also pins every registered metric name for repro-lint's metric-coverage
   contract), golden Prometheus/JSON exporter output, dissemination-tree
   rendering (byte-identical across engine domain counts), snapshot
   fingerprint determinism d=1 vs d=2 (qcheck over seeds), and the
   watchdog battery including the chaos_drop_forward_copy_metric
   conviction. *)

module Registry = Repro_obs.Registry
module Event = Repro_obs.Event
module Histo = Repro_obs.Histo
module Log = Repro_obs.Log
module Watch = Repro_obs.Watch
module Trace_tree = Repro_obs.Trace_tree
module Telemetry = Repro_experiments.Telemetry
module Diagrams = Repro_experiments.Diagrams
module Scaling = Repro_experiments.Scaling
module Config = Repro_catocs.Config
module Stack = Repro_catocs.Stack

(* --- registry cells and snapshots ------------------------------------------- *)

let test_registry_cells () =
  let r = Registry.create ~enabled:true () in
  Alcotest.(check bool) "enabled" true (Registry.enabled r);
  let c = Registry.counter r ~layer:Event.Ordering ~name:"copies" () in
  Registry.incr c;
  Registry.add c 2;
  Alcotest.(check int) "counter value" 3 (Registry.value c);
  (* registration is idempotent: the same key hands back the same cell *)
  let c' = Registry.counter r ~layer:Event.Ordering ~name:"copies" () in
  Registry.incr c';
  Alcotest.(check int) "same cell" 4 (Registry.value c);
  let g = Registry.gauge r ~layer:Event.Ordering ~name:"depth" () in
  Registry.set g 7;
  Alcotest.(check int) "gauge value" 7 (Registry.gauge_value g);
  let h = Registry.histogram r ~layer:Event.Stability ~name:"lag" () in
  Histo.add h 10.0;
  Histo.add h 20.0;
  let snap = Registry.snapshot r in
  Alcotest.(check int) "counter_total" 4
    (Registry.counter_total snap ~layer:Event.Ordering ~name:"copies");
  Alcotest.(check int) "gauge_total" 7
    (Registry.gauge_total snap ~layer:Event.Ordering ~name:"depth");
  (match Registry.histo snap ~layer:Event.Stability ~name:"lag" with
   | Some h -> Alcotest.(check int) "histo count" 2 (Histo.count h)
   | None -> Alcotest.fail "lag histogram missing from snapshot");
  Alcotest.(check int) "absent counter is 0" 0
    (Registry.counter_total snap ~layer:Event.View ~name:"nope");
  (* labels are order-insensitive *)
  let l1 =
    Registry.counter r ~layer:Event.Transport ~name:"bytes"
      ~labels:[ ("dst", "1"); ("src", "0") ] ()
  in
  let l2 =
    Registry.counter r ~layer:Event.Transport ~name:"bytes"
      ~labels:[ ("src", "0"); ("dst", "1") ] ()
  in
  Registry.incr l1;
  Alcotest.(check int) "label order canonical" 1 (Registry.value l2)

let test_registry_type_conflict () =
  let r = Registry.create ~enabled:true () in
  ignore (Registry.counter r ~layer:Event.Ordering ~name:"copies" ());
  Alcotest.check_raises "counter re-registered as gauge"
    (Invalid_argument "Obs.Registry: ordering/copies registered with two types")
    (fun () -> ignore (Registry.gauge r ~layer:Event.Ordering ~name:"copies" ()))

let test_registry_disabled () =
  let r = Registry.create ~enabled:false () in
  Alcotest.(check bool) "disabled" false (Registry.enabled r);
  let c = Registry.counter r ~layer:Event.Ordering ~name:"copies" () in
  Registry.incr c;
  Alcotest.(check int) "snapshot empty" 0 (List.length (Registry.snapshot r));
  (* the process-wide null registry behaves the same *)
  let n = Registry.null () in
  Alcotest.(check bool) "null disabled" false (Registry.enabled n);
  ignore (Registry.counter n ~layer:Event.View ~name:"flushes" ());
  Alcotest.(check int) "null snapshot empty" 0
    (List.length (Registry.snapshot n))

let test_registry_merge () =
  let build spec =
    let r = Registry.create ~enabled:true () in
    List.iter
      (fun (name, v) ->
        Registry.add (Registry.counter r ~layer:Event.Ordering ~name ()) v)
      spec;
    Histo.add (Registry.histogram r ~layer:Event.Ordering ~name:"lat" ()) 5.0;
    Registry.snapshot r
  in
  let a = build [ ("x", 3); ("y", 1) ] in
  let b = build [ ("x", 4); ("z", 2) ] in
  let ab = Registry.merge a b and ba = Registry.merge b a in
  Alcotest.(check string) "merge commutes (fingerprint)"
    (Registry.fingerprint ab) (Registry.fingerprint ba);
  Alcotest.(check int) "counters add" 7
    (Registry.counter_total ab ~layer:Event.Ordering ~name:"x");
  Alcotest.(check int) "disjoint keys kept" 1
    (Registry.counter_total ab ~layer:Event.Ordering ~name:"y");
  (match Registry.histo ab ~layer:Event.Ordering ~name:"lat" with
   | Some h -> Alcotest.(check int) "histogram counts add" 2 (Histo.count h)
   | None -> Alcotest.fail "merged histogram missing");
  let c = build [ ("x", 10) ] in
  Alcotest.(check string) "merge_all associative"
    (Registry.fingerprint (Registry.merge (Registry.merge a b) c))
    (Registry.fingerprint (Registry.merge_all [ a; b; c ]))

(* --- the fig1 metric inventory ----------------------------------------------

   Every cell the stack, transport and stability layers register, with the
   values the deterministic Figure 1 run must produce. Beyond checking the
   instrumentation, the literal names below pin the registry vocabulary:
   repro-lint's metric-coverage contract requires each ~name registered
   under lib/ to be spelled out under test/. *)

let fig1_snapshot = lazy (Diagrams.fig1_run ~metrics:true ()).Diagrams.registry_snapshot

let test_fig1_inventory () =
  let snap = Lazy.force fig1_snapshot in
  let keys =
    List.map
      (fun ((k : Registry.key), _) ->
        (Event.layer_name k.Registry.layer, k.Registry.name))
      snap
  in
  Alcotest.(check (list (pair string string)))
    "registered cells, sorted by (layer, name)"
    [ ("ordering", "blocked_msgs");
      ("ordering", "delivery_latency_us");
      ("ordering", "forward_copies");
      ("ordering", "origin_copies");
      ("ordering", "queue_depth");
      ("ordering", "resend_copies");
      ("stability", "gossip_msgs");
      ("stability", "minima_advances");
      ("stability", "stability_lag_us");
      ("stability", "unstable_bytes");
      ("stability", "unstable_msgs");
      ("transport", "encoded_bytes");
      ("transport", "modeled_bytes");
      ("transport", "packets");
      ("view", "flushes");
      ("view", "view_changes") ]
    keys

let test_fig1_values () =
  let snap = Lazy.force fig1_snapshot in
  let c name = Registry.counter_total snap ~layer:Event.Ordering ~name in
  (* four multicasts in a 3-member group: two origin copies each; BSS never
     forwards or resends *)
  Alcotest.(check int) "origin copies" 8 (c "origin_copies");
  Alcotest.(check int) "no forwards under bss" 0 (c "forward_copies");
  Alcotest.(check int) "no resends" 0 (c "resend_copies");
  Alcotest.(check int) "one packet per origin copy" 8
    (Registry.counter_total snap ~layer:Event.Transport ~name:"packets");
  (* structural wire format: no frames were encoded or charged *)
  Alcotest.(check int) "no encoded bytes" 0
    (Registry.counter_total snap ~layer:Event.Transport ~name:"encoded_bytes");
  Alcotest.(check int) "no modeled-byte mirror" 0
    (Registry.counter_total snap ~layer:Event.Transport ~name:"modeled_bytes");
  (* every copy of the four multicasts is delivered (incl. self-delivery) *)
  (match Registry.histo snap ~layer:Event.Ordering ~name:"delivery_latency_us" with
   | Some h -> Alcotest.(check int) "delivery latencies" 12 (Histo.count h)
   | None -> Alcotest.fail "delivery_latency_us missing");
  (match Registry.histo snap ~layer:Event.Stability ~name:"stability_lag_us" with
   | Some h ->
     Alcotest.(check int) "stability lags recorded" 6 (Histo.count h)
   | None -> Alcotest.fail "stability_lag_us missing");
  (* the incremental tracker advanced its minima; the figure run is too
     short for a gossip round or a view change *)
  Alcotest.(check int) "minima advances" 6
    (Registry.counter_total snap ~layer:Event.Stability ~name:"minima_advances");
  Alcotest.(check int) "no gossip inside the figure horizon" 0
    (Registry.counter_total snap ~layer:Event.Stability ~name:"gossip_msgs");
  Alcotest.(check int) "no flushes" 0
    (Registry.counter_total snap ~layer:Event.View ~name:"flushes");
  Alcotest.(check int) "no view changes" 0
    (Registry.counter_total snap ~layer:Event.View ~name:"view_changes");
  (* quiescent at the end: occupancy gauges all drained back to zero *)
  List.iter
    (fun (layer, name) ->
      Alcotest.(check int) (name ^ " drained") 0
        (Registry.gauge_total snap ~layer ~name))
    [ (Event.Ordering, "queue_depth");
      (Event.Ordering, "blocked_msgs");
      (Event.Stability, "unstable_msgs");
      (Event.Stability, "unstable_bytes") ]

let test_fig1_pc_forwards () =
  let outcome =
    Diagrams.fig1_run ~causal_impl:Config.Pc_causal ~metrics:true ()
  in
  let snap = outcome.Diagrams.registry_snapshot in
  let c name = Registry.counter_total snap ~layer:Event.Ordering ~name in
  Alcotest.(check int) "origin copies unchanged" 8 (c "origin_copies");
  (* PC full mesh: each of the 4 messages is forwarded on first delivery
     by both remote members to the one other remote member *)
  Alcotest.(check int) "forward-on-first-delivery copies" 8
    (c "forward_copies")

(* --- encoded wire format through the scaling knobs ------------------------ *)

let test_encoded_wire_metrics () =
  let p =
    match
      Scaling.sweep ~sizes:[ 4 ] ~seed:7L ~duration:(Sim_time.ms 100)
        ~config:
          { Scaling.config with
            Config.track_graph = false;
            metrics = true;
            wire_format = Config.Encoded }
        ()
    with
    | [ p ] -> p
    | _ -> assert false
  in
  let snap = p.Scaling.registry_snapshot in
  Alcotest.(check bool) "per-link wire_bytes charged" true
    (Registry.counter_total snap ~layer:Event.Transport ~name:"wire_bytes" > 0);
  Alcotest.(check bool) "encoded copy bytes charged" true
    (Registry.counter_total snap ~layer:Event.Transport ~name:"encoded_bytes"
     > 0);
  Alcotest.(check bool) "modeled mirror alongside" true
    (Registry.counter_total snap ~layer:Event.Transport ~name:"modeled_bytes"
     > 0);
  Alcotest.(check bool) "delivery percentiles populated" true
    (p.Scaling.delivery_p50_us > 0.
     && p.Scaling.delivery_p50_us <= p.Scaling.delivery_p99_us
     && p.Scaling.delivery_p99_us <= p.Scaling.delivery_p999_us);
  Alcotest.(check bool) "stability-lag percentiles populated" true
    (p.Scaling.stability_lag_p50_us > 0.
     && p.Scaling.stability_lag_p50_us <= p.Scaling.stability_lag_p999_us)

(* --- snapshot fingerprint determinism across engine domain counts ----------- *)

let snapshot_fingerprint ~seed ~engine_impl =
  let p =
    Scaling.measure_with_graph ~engine_impl ~duration:(Sim_time.ms 100)
      ~config:
        { Scaling.config with Config.track_graph = false; metrics = true }
      ~seed 4
  in
  Registry.fingerprint p.Scaling.registry_snapshot

let fingerprint_domains_qcheck =
  QCheck.Test.make ~count:8
    ~name:"registry snapshot fingerprint is domain-count independent"
    QCheck.(map Int64.of_int small_nat)
    (fun seed ->
      let d1 =
        snapshot_fingerprint ~seed
          ~engine_impl:(Engine.Parallel { domains = 1 })
      in
      let d2 =
        snapshot_fingerprint ~seed
          ~engine_impl:(Engine.Parallel { domains = 2 })
      in
      String.equal d1 d2)

(* Sequential draws from one shared rng stream, so it is internally
   deterministic but deliberately not schedule-comparable with the
   per-lane Parallel strategy; the domain-count invariance only spans
   Parallel {domains = k}. *)
let test_fingerprint_more_domains () =
  let seed = 11L in
  Alcotest.(check string) "parallel d=2 = parallel d=4"
    (snapshot_fingerprint ~seed ~engine_impl:(Engine.Parallel { domains = 2 }))
    (snapshot_fingerprint ~seed ~engine_impl:(Engine.Parallel { domains = 4 }))

(* --- golden exporters -------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Under [dune runtest] the cwd is the test directory; under [dune exec]
   from the project root the goldens live one level down. *)
let locate golden =
  if Sys.file_exists golden then golden else Filename.concat "test" golden

(* With METRICS_GOLDEN_REGEN=1 the golden comparisons rewrite their files
   in the source tree instead of checking (dune runs tests in a sandboxed
   copy, so regeneration must target the project root explicitly). *)
let source_root =
  match Sys.getenv_opt "DUNE_SOURCEROOT" with Some r -> r | None -> "."

let regenerating = Sys.getenv_opt "METRICS_GOLDEN_REGEN" <> None

let check_golden ~golden ~regen actual =
  if regenerating then begin
    let path = Filename.concat source_root (Filename.concat "test" golden) in
    let oc = open_out_bin path in
    output_string oc actual;
    close_out oc;
    Printf.printf "regenerated %s\n%!" path
  end
  else
  let expected = read_file (locate golden) in
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
        "%s: output diverged at line %d\n  golden: %s\n  actual: %s\n\
         (regenerate with: %s)"
        golden line e a regen
    | None -> Alcotest.failf "%s: outputs differ only in line endings" golden
  end

let metrics_regen =
  "METRICS_GOLDEN_REGEN=1 dune exec test/test_metrics.exe -- test exporters"

let test_prometheus_golden () =
  check_golden ~golden:"golden/fig1_metrics.prom" ~regen:metrics_regen
    (Registry.to_prometheus (Lazy.force fig1_snapshot))

let test_json_golden () =
  let json = Registry.to_json (Lazy.force fig1_snapshot) in
  check_golden ~golden:"golden/fig1_metrics.json" ~regen:metrics_regen json;
  (match Repro_analyze.Json.of_string json with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "metrics JSON does not parse: %s" e)

(* --- dissemination trees ----------------------------------------------------- *)

let test_tree_golden () =
  let s = Option.get (Telemetry.find "fig1") in
  let log, names, _ = s.Telemetry.run () in
  check_golden ~golden:"golden/fig1_tree.txt"
    ~regen:"METRICS_GOLDEN_REGEN=1 dune exec test/test_metrics.exe -- test trees"
    (Trace_tree.render_log ~names log)

let test_tree_uids_and_single () =
  let s = Option.get (Telemetry.find "fig1-pc") in
  let log, names, _ = s.Telemetry.run () in
  let uids = Trace_tree.uids log in
  Alcotest.(check int) "four multicasts" 4 (List.length uids);
  let contains_sub hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i =
      i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
    in
    go 0
  in
  match Trace_tree.of_log log ~uid:(List.hd uids) with
  | Some tree ->
    let txt = Trace_tree.render ~names tree in
    Alcotest.(check bool) "forward hops rendered" true
      (contains_sub txt "forward")
  | None -> Alcotest.fail "first uid has no tree"

let test_tree_across_domains () =
  let render engine_impl =
    let log = Log.create ~synchronized:true () in
    ignore (Diagrams.fig1_run ~engine_impl ~obs:log ~metrics:true ());
    Trace_tree.render_log log
  in
  let d1 = render (Engine.Parallel { domains = 1 }) in
  let d2 = render (Engine.Parallel { domains = 2 }) in
  Alcotest.(check string) "tree rendering byte-identical d=1 vs d=2" d1 d2;
  Alcotest.(check bool) "trees non-trivial" true (String.length d1 > 0)

(* --- watchdogs ---------------------------------------------------------------- *)

let run_scenario name =
  let s = Option.get (Telemetry.find name) in
  s.Telemetry.run ()

let test_watch_clean_scenarios () =
  List.iter
    (fun name ->
      let log, _, snapshot = run_scenario name in
      let findings =
        match snapshot with
        | [] -> Watch.run log
        | _ -> Watch.run ~snapshot log
      in
      let errors =
        List.filter (fun f -> f.Watch.severity = Watch.Error) findings
      in
      Alcotest.(check int)
        (Printf.sprintf "%s: no error-severity watchdog findings" name)
        0 (List.length errors))
    [ "fig1"; "fig1-pc"; "fig2-shop-floor"; "fig3-fire-alarm" ]

let test_watch_duplicate_rate_reported () =
  (* PC full-mesh forwarding floods duplicates by design: the watchdog
     reports them at Info severity, not as a failure *)
  let log, _, snapshot = run_scenario "fig1-pc" in
  let findings = Watch.run ~snapshot log in
  Alcotest.(check bool) "duplicate-copy-rate reported" true
    (List.exists
       (fun f ->
         f.Watch.rule = "duplicate-copy-rate" && f.Watch.severity = Watch.Info)
       findings)

let test_watch_chaos_conviction () =
  (* drop the forward-copy counter increment while the hop records keep
     flowing: copy-conservation must catch the census disagreeing with the
     counters *)
  Stack.chaos_drop_forward_copy_metric := true;
  Fun.protect
    ~finally:(fun () -> Stack.chaos_drop_forward_copy_metric := false)
    (fun () ->
      let log, _, snapshot = run_scenario "fig1-pc" in
      let findings = Watch.run ~snapshot log in
      match
        List.find_opt (fun f -> f.Watch.rule = "copy-conservation") findings
      with
      | Some f ->
        Alcotest.(check bool) "error severity" true
          (f.Watch.severity = Watch.Error)
      | None ->
        Alcotest.fail
          "dropped forward_copies increment not convicted by \
           copy-conservation");
  (* and the battery is clean again once the hook is reset *)
  let log, _, snapshot = run_scenario "fig1-pc" in
  Alcotest.(check bool) "clean after reset" true
    (not
       (List.exists
          (fun f -> f.Watch.rule = "copy-conservation")
          (Watch.run ~snapshot log)))

let () =
  Alcotest.run "repro_metrics"
    [
      ( "registry",
        [ Alcotest.test_case "cells and snapshot readers" `Quick
            test_registry_cells;
          Alcotest.test_case "type conflict rejected" `Quick
            test_registry_type_conflict;
          Alcotest.test_case "disabled registry is scrap" `Quick
            test_registry_disabled;
          Alcotest.test_case "merge algebra" `Quick test_registry_merge ] );
      ( "fig1",
        [ Alcotest.test_case "metric inventory" `Quick test_fig1_inventory;
          Alcotest.test_case "conservation counters" `Quick test_fig1_values;
          Alcotest.test_case "pc forward copies" `Quick test_fig1_pc_forwards ]
      );
      ( "wire",
        [ Alcotest.test_case "encoded wire metrics" `Quick
            test_encoded_wire_metrics ] );
      ( "determinism",
        [ QCheck_alcotest.to_alcotest fingerprint_domains_qcheck;
          Alcotest.test_case "more domains" `Quick
            test_fingerprint_more_domains ] );
      ( "exporters",
        [ Alcotest.test_case "prometheus golden" `Quick test_prometheus_golden;
          Alcotest.test_case "json golden" `Quick test_json_golden ] );
      ( "trees",
        [ Alcotest.test_case "fig1 rendering golden" `Quick test_tree_golden;
          Alcotest.test_case "per-message tree" `Quick
            test_tree_uids_and_single;
          Alcotest.test_case "byte-identical across domains" `Quick
            test_tree_across_domains ] );
      ( "watchdogs",
        [ Alcotest.test_case "clean scenarios stay clean" `Quick
            test_watch_clean_scenarios;
          Alcotest.test_case "pc duplicates reported at info" `Quick
            test_watch_duplicate_rate_reported;
          Alcotest.test_case "dropped increment convicted" `Quick
            test_watch_chaos_conviction ] );
    ]
