(* Tests for the causal sanitizer (lib/analyze): JSON encoding,
   happened-before construction, each detector on hand-built executions, the
   figure reproductions from lib/experiments and lib/apps, and consistency
   with the checker's oracles across seeds. *)

module Json = Repro_analyze.Json
module Exec = Repro_analyze.Exec
module Recorder = Repro_analyze.Exec.Recorder
module Hb = Repro_analyze.Hb
module Finding = Repro_analyze.Finding
module Analyzer = Repro_analyze.Analyzer
module Reference_causal = Repro_oracle.Reference_causal
module Config = Repro_catocs.Config
module Delivery_queue = Repro_catocs.Delivery_queue
module Runner = Repro_check.Runner
module Fault_plan = Repro_check.Fault_plan
module Diagrams = Repro_experiments.Diagrams
module Telemetry = Repro_experiments.Telemetry
module False_causality = Repro_experiments.False_causality
module Deceit_store = Repro_apps.Deceit_store
module Trading = Repro_apps.Trading

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  m = 0 || at 0

let kinds_of findings =
  List.sort_uniq compare (List.map (fun (f : Finding.t) -> f.Finding.kind) findings)

let count_kind kind findings =
  List.length
    (List.filter (fun (f : Finding.t) -> f.Finding.kind = kind) findings)

let has_kind kind findings = count_kind kind findings > 0

(* --- JSON ----------------------------------------------------------------- *)

let test_json_roundtrip () =
  let value =
    Json.Obj
      [ ("a", Json.Int 3);
        ("b", Json.Arr [ Json.Str "x\"y\n"; Json.Null; Json.Bool true ]);
        ("c", Json.Float 1.5);
        ("empty", Json.Obj []) ]
  in
  match Json.of_string (Json.to_string value) with
  | Ok parsed ->
    check_bool "roundtrip equal" true (parsed = value);
    check_string "deterministic emission" (Json.to_string value)
      (Json.to_string parsed)
  | Error e -> Alcotest.failf "roundtrip parse failed: %s" e

let test_json_errors () =
  List.iter
    (fun input ->
      match Json.of_string input with
      | Ok _ -> Alcotest.failf "parser accepted %S" input
      | Error _ -> ())
    [ "[1,"; "{\"a\" 1}"; "nul"; "[] []"; "\"unterminated"; "" ]

let test_json_accessors () =
  match Json.of_string {|{"n": 4, "xs": [1.5], "s": "hi"}|} with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok doc ->
    check_bool "int" true (Option.bind (Json.member "n" doc) Json.to_int = Some 4);
    check_bool "float of int" true
      (Option.bind (Json.member "n" doc) Json.to_float = Some 4.0);
    check_bool "str" true
      (Option.bind (Json.member "s" doc) Json.to_str = Some "hi");
    check_bool "missing member" true (Json.member "nope" doc = None)

(* --- happened-before graph -------------------------------------------------- *)

(* p10 multicasts u0; p20 delivers it and multicasts u1; p10 delivers u1. *)
let relay_exec () =
  let r = Recorder.create ~label:"relay" () in
  Recorder.add_process r ~pid:10 ~name:"A";
  Recorder.add_process r ~pid:20 ~name:"B";
  let u0 = Recorder.note_send r ~sender:10 ~at:(Sim_time.ms 1) () in
  Recorder.note_delivery r ~pid:20 ~uid:u0 ~at:(Sim_time.ms 2);
  let u1 = Recorder.note_send r ~sender:20 ~at:(Sim_time.ms 3) () in
  Recorder.note_delivery r ~pid:10 ~uid:u1 ~at:(Sim_time.ms 4);
  (Recorder.exec r, u0, u1)

let test_hb_reachability () =
  let exec, u0, u1 = relay_exec () in
  let hb = Hb.build exec in
  check_bool "acyclic" true (Hb.find_cycle hb = None);
  check_bool "u0 reaches u1 via transport" true
    (Hb.reaches hb ~transport_only:true (Exec.Send_ev u0) (Exec.Send_ev u1));
  check_bool "no reverse reachability" false
    (Hb.reaches hb (Exec.Send_ev u1) (Exec.Send_ev u0));
  check_bool "not reflexive" false
    (Hb.reaches hb (Exec.Send_ev u0) (Exec.Send_ev u0));
  (* u1's context was recorded automatically: B had delivered u0 *)
  (match Exec.find_send exec u1 with
   | Some s -> check_bool "context tracked" true (List.mem u0 s.Exec.context)
   | None -> Alcotest.fail "u1 missing");
  match
    Hb.shortest_path hb ~transport_only:true (Exec.Send_ev u0)
      (Exec.Send_ev u1)
  with
  | Some path -> check_int "send->deliver->send" 2 (List.length path)
  | None -> Alcotest.fail "no witness path"

let test_hb_transitive_reduction () =
  (* One sender, three sends in program order: the FIFO chain u0->u1->u2
     must not also carry the redundant u0->u2 edge. *)
  let r = Recorder.create ~label:"chain" () in
  let u0 = Recorder.note_send r ~sender:1 ~at:(Sim_time.ms 1) () in
  let _u1 = Recorder.note_send r ~sender:1 ~at:(Sim_time.ms 2) () in
  let u2 = Recorder.note_send r ~sender:1 ~at:(Sim_time.ms 3) () in
  let hb = Hb.build (Recorder.exec r) in
  check_bool "u0 reaches u2" true
    (Hb.reaches hb (Exec.Send_ev u0) (Exec.Send_ev u2));
  check_bool "no redundant direct edge" false
    (List.exists
       (fun (edge : Hb.edge) ->
         edge.Hb.src = Exec.Send_ev u0 && edge.Hb.dst = Exec.Send_ev u2)
       (Hb.edges hb))

let test_hb_cycle_witness () =
  let r = Recorder.create ~label:"cyclic" () in
  let u0 = Recorder.note_send r ~sender:1 ~at:(Sim_time.ms 1) () in
  let u1 = Recorder.note_send r ~sender:2 ~at:(Sim_time.ms 2) () in
  Recorder.note_order_requirement r ~before:u0 ~after:u1 ~via:"claim a";
  Recorder.note_order_requirement r ~before:u1 ~after:u0 ~via:"claim b";
  let hb = Hb.build (Recorder.exec r) in
  match Hb.find_cycle hb with
  | None -> Alcotest.fail "cycle not detected"
  | Some nodes -> check_bool "witness non-trivial" true (List.length nodes >= 2)

(* --- detectors on hand-built executions ------------------------------------- *)

let test_detect_duplicate_uid () =
  (* B delivers A's one multicast twice: the judge's at-most-once verdict,
     reported once with the delivery count. *)
  let r = Recorder.create ~label:"dup delivery" () in
  Recorder.add_process r ~pid:1 ~name:"A";
  Recorder.add_process r ~pid:2 ~name:"B";
  let u0 = Recorder.note_send r ~sender:1 ~at:(Sim_time.ms 1) () in
  Recorder.note_delivery r ~pid:2 ~uid:u0 ~at:(Sim_time.ms 2);
  Recorder.note_delivery r ~pid:2 ~uid:u0 ~at:(Sim_time.ms 3);
  let findings = (Analyzer.analyze (Recorder.exec r)).Analyzer.findings in
  check_int "one duplicate-uid finding" 1
    (count_kind Finding.Duplicate_uid findings);
  let f = List.find (fun f -> f.Finding.kind = Finding.Duplicate_uid) findings in
  check_string "summary" "uid u0 delivered 2 times at B" f.Finding.summary;
  check_bool "blames B" true (f.Finding.pids = [ 2 ] && f.Finding.uids = [ u0 ])

let test_detect_causal_cycle () =
  let r = Recorder.create ~label:"cycle exec" () in
  let u0 = Recorder.note_send r ~sender:1 ~at:(Sim_time.ms 1) () in
  let u1 = Recorder.note_send r ~sender:2 ~at:(Sim_time.ms 2) () in
  Recorder.note_order_requirement r ~before:u0 ~after:u1 ~via:"a";
  Recorder.note_order_requirement r ~before:u1 ~after:u0 ~via:"b";
  let findings = (Analyzer.analyze (Recorder.exec r)).Analyzer.findings in
  check_bool "causal-cycle reported" true
    (has_kind Finding.Causal_cycle findings);
  (* order-sensitive detectors are skipped on cyclic inputs *)
  check_bool "no hidden-channel on cyclic input" false
    (has_kind Finding.Hidden_channel findings)

let test_detect_causal_order_violation () =
  (* u0 -> u1 through the transport (B delivered u0 before sending u1), yet
     process C delivers u1 first: the offline mirror of the causal oracle. *)
  let r = Recorder.create ~ordering:Exec.Causal_order ~label:"inversion" () in
  Recorder.add_process r ~pid:1 ~name:"A";
  Recorder.add_process r ~pid:2 ~name:"B";
  Recorder.add_process r ~pid:3 ~name:"C";
  let u0 = Recorder.note_send r ~sender:1 ~at:(Sim_time.ms 1) () in
  Recorder.note_delivery r ~pid:2 ~uid:u0 ~at:(Sim_time.ms 2);
  let u1 = Recorder.note_send r ~sender:2 ~at:(Sim_time.ms 3) () in
  Recorder.note_delivery r ~pid:3 ~uid:u1 ~at:(Sim_time.ms 4);
  Recorder.note_delivery r ~pid:3 ~uid:u0 ~at:(Sim_time.ms 5);
  let findings = (Analyzer.analyze (Recorder.exec r)).Analyzer.findings in
  check_int "exactly the inversion" 1
    (count_kind Finding.Causal_order findings);
  let f =
    List.find (fun f -> f.Finding.kind = Finding.Causal_order) findings
  in
  check_bool "names both uids" true
    (List.mem u0 f.Finding.uids && List.mem u1 f.Finding.uids);
  check_bool "blames C" true (f.Finding.pids = [ 3 ]);
  check_bool "has witness path" true (f.Finding.evidence <> [])

let test_causal_order_through_undelivered () =
  (* u0 -> u1 -> u2 through the transport, and D delivers u2 and then u0
     but never u1: u0 is not in u2's recorded context (C never delivered
     it), so only looking through the missing u1 finds the inversion. *)
  let r = Recorder.create ~ordering:Exec.Causal_order ~label:"gap" () in
  List.iter
    (fun (pid, name) -> Recorder.add_process r ~pid ~name)
    [ (1, "A"); (2, "B"); (3, "C"); (4, "D") ];
  let u0 = Recorder.note_send r ~sender:1 ~at:(Sim_time.ms 1) () in
  Recorder.note_delivery r ~pid:2 ~uid:u0 ~at:(Sim_time.ms 2);
  let u1 = Recorder.note_send r ~sender:2 ~at:(Sim_time.ms 3) () in
  Recorder.note_delivery r ~pid:3 ~uid:u1 ~at:(Sim_time.ms 4);
  let u2 = Recorder.note_send r ~sender:3 ~at:(Sim_time.ms 5) () in
  Recorder.note_delivery r ~pid:4 ~uid:u2 ~at:(Sim_time.ms 6);
  Recorder.note_delivery r ~pid:4 ~uid:u0 ~at:(Sim_time.ms 7);
  let findings = (Analyzer.analyze (Recorder.exec r)).Analyzer.findings in
  match List.filter (fun f -> f.Finding.kind = Finding.Causal_order) findings with
  | [ f ] ->
    check_bool "names u0 and u2" true (f.Finding.uids = [ u0; u2 ]);
    check_bool "blames D" true (f.Finding.pids = [ 4 ]);
    check_bool "has witness path" true (f.Finding.evidence <> [])
  | fs -> Alcotest.failf "expected one causal-order finding, got %d" (List.length fs)

(* Differential check of the sanitizer's causal-order verdicts (the delivery
   judge, without join times) against the happened-before reference in
   test/oracle: random executions of 3-4 processes, every process present
   from time 0, in which each delivery picks any message the process has
   not delivered yet (so causal order is often inverted and intermediate
   messages are often never delivered). Whenever the DAG finds a causally
   prior message delivered second at a process, the analyzer must convict
   that process. *)
let test_judge_convicts_dag_inversions () =
  let config = { Analyzer.default_config with max_findings_per_kind = max_int } in
  let property seed =
    let rng = Random.State.make [| seed |] in
    let r = Recorder.create ~ordering:Exec.Causal_order ~label:"random" () in
    let n = 3 + Random.State.int rng 2 in
    let sent = ref [] in
    let delivered = Hashtbl.create 32 in
    for step = 1 to 10 + Random.State.int rng 30 do
      let pid = Random.State.int rng n in
      let at = Sim_time.ms step in
      let fresh =
        List.filter (fun uid -> not (Hashtbl.mem delivered (pid, uid))) !sent
      in
      if fresh = [] || Random.State.int rng 3 = 0 then
        sent := Recorder.note_send r ~sender:pid ~at () :: !sent
      else begin
        let uid = List.nth fresh (Random.State.int rng (List.length fresh)) in
        Hashtbl.add delivered (pid, uid) ();
        Recorder.note_delivery r ~pid ~uid ~at
      end
    done;
    let exec = Recorder.exec r in
    let findings = (Analyzer.analyze ~config exec).Analyzer.findings in
    let convicted pid =
      List.exists
        (fun f -> f.Finding.kind = Finding.Causal_order && f.Finding.pids = [ pid ])
        findings
    in
    List.for_all
      (fun (pid, _, _) -> convicted pid)
      (Reference_causal.inversions (Hb.build exec))
  in
  QCheck.Test.make ~count:300 ~name:"judge convicts every dag inversion"
    (QCheck.int_bound 1_000_000) property

let test_fifo_mode_not_blamed_for_causal_inversion () =
  (* The same inversion under a declared FIFO discipline is legitimate:
     FIFO never promised cross-process causality. *)
  let r = Recorder.create ~ordering:Exec.Fifo_order ~label:"fifo run" () in
  let u0 = Recorder.note_send r ~sender:1 ~at:(Sim_time.ms 1) () in
  Recorder.note_delivery r ~pid:2 ~uid:u0 ~at:(Sim_time.ms 2);
  let u1 = Recorder.note_send r ~sender:2 ~at:(Sim_time.ms 3) () in
  Recorder.note_delivery r ~pid:3 ~uid:u1 ~at:(Sim_time.ms 4);
  Recorder.note_delivery r ~pid:3 ~uid:u0 ~at:(Sim_time.ms 5);
  check_int "no causal-order finding" 0
    (count_kind Finding.Causal_order
       (Analyzer.analyze (Recorder.exec r)).Analyzer.findings)

let test_detect_hidden_channel () =
  (* Two senders coupled only by a declared channel edge; process 3 delivers
     the downstream send first -> Error with the observed inversion. *)
  let r = Recorder.create ~ordering:Exec.Causal_order ~label:"hidden" () in
  let u0 = Recorder.note_send r ~sender:1 ~at:(Sim_time.ms 1) () in
  let u1 = Recorder.note_send r ~sender:2 ~at:(Sim_time.ms 2) () in
  Recorder.note_order_requirement r ~before:u0 ~after:u1 ~via:"shared disk";
  Recorder.note_delivery r ~pid:3 ~uid:u1 ~at:(Sim_time.ms 3);
  Recorder.note_delivery r ~pid:3 ~uid:u0 ~at:(Sim_time.ms 4);
  let findings = (Analyzer.analyze (Recorder.exec r)).Analyzer.findings in
  check_int "one hidden channel" 1 (count_kind Finding.Hidden_channel findings);
  let f =
    List.find (fun f -> f.Finding.kind = Finding.Hidden_channel) findings
  in
  check_bool "error: inversion observed" true
    (f.Finding.severity = Finding.Error);
  check_bool "labels the channel" true
    (contains ~sub:"shared disk" f.Finding.summary)

let test_covered_channel_not_flagged () =
  (* Same constraint, but the downstream sender first delivered the upstream
     message: the transport covers the edge, nothing to report. *)
  let r = Recorder.create ~ordering:Exec.Causal_order ~label:"covered" () in
  let u0 = Recorder.note_send r ~sender:1 ~at:(Sim_time.ms 1) () in
  Recorder.note_delivery r ~pid:2 ~uid:u0 ~at:(Sim_time.ms 2);
  let u1 = Recorder.note_send r ~sender:2 ~at:(Sim_time.ms 3) () in
  Recorder.note_order_requirement r ~before:u0 ~after:u1 ~via:"shared disk";
  Recorder.note_delivery r ~pid:3 ~uid:u0 ~at:(Sim_time.ms 4);
  Recorder.note_delivery r ~pid:3 ~uid:u1 ~at:(Sim_time.ms 5);
  check_int "no findings at all" 0
    (List.length (Analyzer.analyze (Recorder.exec r)).Analyzer.findings)

let test_detect_false_causality () =
  (* Two independent streams under a causal discipline: the second sender
     declares no semantic dependencies, so the enforced context entry from
     the other stream is false causality. *)
  let r = Recorder.create ~ordering:Exec.Causal_order ~label:"fc" () in
  let u0 = Recorder.note_send r ~sender:1 ~semantic:[] ~at:(Sim_time.ms 1) () in
  Recorder.note_delivery r ~pid:2 ~uid:u0 ~at:(Sim_time.ms 2);
  let _u1 = Recorder.note_send r ~sender:2 ~semantic:[] ~at:(Sim_time.ms 3) () in
  let findings = (Analyzer.analyze (Recorder.exec r)).Analyzer.findings in
  check_int "one false-causality finding" 1
    (count_kind Finding.False_causality findings);
  (* undeclared semantics: the detector stays silent *)
  let r' = Recorder.create ~ordering:Exec.Causal_order ~label:"fc off" () in
  let v0 = Recorder.note_send r' ~sender:1 ~at:(Sim_time.ms 1) () in
  Recorder.note_delivery r' ~pid:2 ~uid:v0 ~at:(Sim_time.ms 2);
  let _v1 = Recorder.note_send r' ~sender:2 ~at:(Sim_time.ms 3) () in
  check_int "undeclared -> silent" 0
    (count_kind Finding.False_causality
       (Analyzer.analyze (Recorder.exec r')).Analyzer.findings)

let test_detect_stability_lag () =
  (* 24 prompt messages and one extreme straggler; the threshold needs at
     least stability_min_samples delivered messages. *)
  let r = Recorder.create ~label:"lag" () in
  let straggler = ref (-1) in
  for i = 0 to 24 do
    let at = Sim_time.ms (10 * (i + 1)) in
    let uid = Recorder.note_send r ~sender:1 ~at () in
    if i = 12 then begin
      straggler := uid;
      Recorder.note_delivery r ~pid:2 ~uid ~at:(Sim_time.add at (Sim_time.ms 400))
    end
    else
      Recorder.note_delivery r ~pid:2 ~uid ~at:(Sim_time.add at (Sim_time.us 700))
  done;
  let findings = (Analyzer.analyze (Recorder.exec r)).Analyzer.findings in
  check_int "one outlier" 1 (count_kind Finding.Stability_lag findings);
  let f =
    List.find (fun f -> f.Finding.kind = Finding.Stability_lag) findings
  in
  check_bool "the straggler" true (f.Finding.uids = [ !straggler ])

(* --- event diagrams ----------------------------------------------------------- *)

(* Three processes registered out of pid order. At 2 ms, B (pid 20)
   delivers u0 and A (pid 10) sends m1 and then writes the database. *)
let diagram_exec () =
  let r = Recorder.create ~label:"diagram" () in
  Recorder.add_process r ~pid:20 ~name:"B";
  Recorder.add_process r ~pid:10 ~name:"A";
  Recorder.add_process r ~pid:30 ~name:"C";
  let u0 = Recorder.note_send r ~sender:20 ~at:(Sim_time.ms 1) () in
  Recorder.note_delivery r ~pid:20 ~uid:u0 ~at:(Sim_time.ms 2);
  let m1 = Recorder.note_send r ~label:"m1" ~sender:10 ~at:(Sim_time.ms 2) () in
  Recorder.note_external r ~pid:10 ~at:(Sim_time.ms 2) ~label:"db put x=1";
  Recorder.note_delivery r ~pid:30 ~uid:m1 ~at:(Sim_time.ms 3);
  Recorder.exec r

(* The diagram's lines, split at the column bars and trimmed. *)
let diagram_cells diagram =
  List.filter_map
    (fun line ->
      if line = "" then None
      else Some (List.map String.trim (String.split_on_char '|' line)))
    (String.split_on_char '\n' diagram)

let test_diagram_layout () =
  match diagram_cells (Exec.render_diagram (diagram_exec ())) with
  | header :: rule :: rows ->
    Alcotest.(check (list string)) "one column per process, in pid order"
      [ "time"; "A"; "B"; "C" ] header;
    check_int "rule spans every column" (10 + (3 * 26))
      (String.length (String.concat "" rule));
    Alcotest.(check (list (list string)))
      "(time, pid, program order) rows"
      [ [ "1.00ms"; ""; "send u0"; "" ];
        [ "2.00ms"; "send m1"; ""; "" ];
        [ "2.00ms"; "db put x=1"; ""; "" ];
        [ "2.00ms"; ""; "dlvr u0"; "" ];
        [ "3.00ms"; ""; ""; "dlvr m1" ] ]
      rows
  | _ -> Alcotest.fail "diagram lacks its header"

(* A cell longer than 24 characters widens its column to fit, whole; a
   column whose cells fit stays 24 wide. *)
let test_diagram_cells_widen () =
  let r = Recorder.create ~label:"long" () in
  Recorder.add_process r ~pid:0 ~name:"a";
  Recorder.add_process r ~pid:1 ~name:"b";
  ignore
    (Recorder.note_send r ~label:"a label longer than one column" ~sender:0
       ~at:(Sim_time.ms 1) ());
  ignore (Recorder.note_send r ~label:"m" ~sender:1 ~at:(Sim_time.ms 2) ());
  let lines = String.split_on_char '\n' (Exec.render_diagram (Recorder.exec r)) in
  let width = 10 + String.length "| send a label longer than one column" + 26 in
  check_bool "every line one width" true
    (List.for_all (fun line -> line = "" || String.length line = width) lines);
  check_bool "whole cell" true
    (List.mem
       ("1.00ms    | send a label longer than one column| "
       ^ String.make 24 ' ')
       lines)

(* An obs log draws too: the Figure 1 telemetry run, ingested with
   [Exec.of_log], draws the Figure 1 diagram under the default labels. *)
let test_diagram_of_fig1_log () =
  let scenario = Option.get (Telemetry.find "fig1") in
  let log, names, _ = scenario.Telemetry.run () in
  let from_log = Exec.render_diagram (Exec.of_log ~names log) in
  let recorded = Diagrams.fig1_exec () in
  let unlabelled =
    { recorded with
      Exec.sends =
        List.map
          (fun (s : Exec.send) -> { s with label = Printf.sprintf "u%d" s.uid })
          recorded.Exec.sends }
  in
  check_int "header, rule and 16 rows" 18
    (List.length (diagram_cells from_log));
  check_string "the Figure 1 diagram under default labels"
    (Exec.render_diagram unlabelled) from_log

(* --- figure reproductions --------------------------------------------------- *)

let test_fig1_clean () =
  (* Figure 1: every ordering constraint flows through the transport, so the
     sanitizer must stay silent. *)
  let result = Analyzer.analyze (Diagrams.fig1_exec ()) in
  check_int "zero findings" 0 (List.length result.Analyzer.findings)

let test_fig2_hidden_channel () =
  (* Figure 2 (shop floor): the shared database carries the start->stop
     ordering; the analyzer must call out the hidden channel. *)
  let findings = (Analyzer.analyze (Diagrams.fig2_exec ())).Analyzer.findings in
  check_bool "hidden-channel reported" true
    (has_kind Finding.Hidden_channel findings);
  let f =
    List.find (fun f -> f.Finding.kind = Finding.Hidden_channel) findings
  in
  check_bool "blames the database" true
    (contains ~sub:"database" f.Finding.summary);
  check_bool "observed inversion -> error" true
    (f.Finding.severity = Finding.Error);
  (* sfc2, sfc1 and the observer first deliver in that order; sfc2 keeps
     the database's order, sfc1 is the first to invert it *)
  check_bool "names the first inverting process" true
    (List.mem
       "observed inversion: sfc1 delivered downstream u1 before upstream u0"
       f.Finding.evidence)

let test_fig3_hidden_channel () =
  (* Figure 3 (fire alarm): the physical world is the channel. *)
  let findings = (Analyzer.analyze (Diagrams.fig3_exec ())).Analyzer.findings in
  check_bool "hidden-channel reported" true
    (has_kind Finding.Hidden_channel findings);
  let f =
    List.find (fun f -> f.Finding.kind = Finding.Hidden_channel) findings
  in
  check_bool "blames the physical world" true
    (contains ~sub:"physical world" f.Finding.summary)

let test_deceit_store_hidden_channel () =
  (* Fig. 1 out-of-band request: the client re-issues writes through another
     server; its program order is the channel. *)
  let recorder =
    Recorder.create ~ordering:Exec.Causal_order ~label:"deceit" ()
  in
  ignore
    (Deceit_store.run ~recorder
       { Deceit_store.default_config with Deceit_store.out_of_band_writes = 12 });
  let findings =
    (Analyzer.analyze (Recorder.exec recorder)).Analyzer.findings
  in
  check_bool "hidden-channel reported" true
    (has_kind Finding.Hidden_channel findings);
  check_bool "client write order named" true
    (List.exists
       (fun f ->
         f.Finding.kind = Finding.Hidden_channel
         && contains ~sub:"client write order" f.Finding.summary)
       findings)

let test_false_causality_experiment () =
  (* Section 3.4 workload: independent streams under causal order; every
     cross-stream context entry is false causality. *)
  let result = Analyzer.analyze (False_causality.record ()) in
  check_bool "false-causality reported" true
    (has_kind Finding.False_causality result.Analyzer.findings);
  check_bool "only false-causality findings" true
    (kinds_of result.Analyzer.findings = [ Finding.False_causality ]);
  let stat name =
    match List.assoc_opt name result.Analyzer.stats with
    | Some (Json.Int n) -> n
    | Some _ | None -> Alcotest.failf "missing stat %s" name
  in
  check_bool "false context is counted" true
    (stat "false_context_entries" > 0
    && stat "false_context_entries" <= stat "context_entries");
  (* under FIFO the coupling disappears: same workload, no findings *)
  let fifo =
    Analyzer.analyze (False_causality.record ~ordering:Config.Fifo ())
  in
  check_int "fifo has no false causality" 0
    (count_kind Finding.False_causality fifo.Analyzer.findings)

(* --- figures under PC-broadcast ---------------------------------------------- *)

(* The paper's anomalies are about what the transport cannot see, so they
   are invariant under the causal implementation: swapping BSS vector
   timestamps for PC-broadcast constant metadata must leave fig1 clean and
   figs 2-4 anomalous. These mirror the `repro-analyze experiment fig*-pc
   --expect ...` CLI assertions CI runs. *)

let test_fig1_pc_clean () =
  let result =
    Analyzer.analyze (Diagrams.fig1_exec ~causal_impl:Config.Pc_causal ())
  in
  check_int "zero findings" 0 (List.length result.Analyzer.findings)

let test_fig2_pc_hidden_channel () =
  let findings =
    (Analyzer.analyze (Diagrams.fig2_exec ~causal_impl:Config.Pc_causal ()))
      .Analyzer.findings
  in
  check_bool "hidden-channel reported" true
    (has_kind Finding.Hidden_channel findings);
  check_bool "blames the database" true
    (List.exists
       (fun f ->
         f.Finding.kind = Finding.Hidden_channel
         && contains ~sub:"database" f.Finding.summary)
       findings)

let test_fig3_pc_hidden_channel () =
  let findings =
    (Analyzer.analyze (Diagrams.fig3_exec ~causal_impl:Config.Pc_causal ()))
      .Analyzer.findings
  in
  check_bool "hidden-channel reported" true
    (has_kind Finding.Hidden_channel findings);
  check_bool "blames the physical world" true
    (List.exists
       (fun f ->
         f.Finding.kind = Finding.Hidden_channel
         && contains ~sub:"physical world" f.Finding.summary)
       findings)

let test_fig4_pc_false_crossing () =
  (* Figure 4 has no recorded execution (the constraint is semantic, not
     happened-before): assert on the app's own counters under PC. *)
  let r =
    Trading.run
      { Trading.default_config with Trading.causal_impl = Config.Pc_causal }
  in
  check_bool "naive display shows false crossings under pc" true
    (r.Trading.naive_false_crossings > 0);
  check_int "dependency fields still fix it" 0
    r.Trading.dep_cache_false_crossings

(* --- checker integration ----------------------------------------------------- *)

let cbcast = Runner.config Config.Causal

let test_clean_cbcast_run_is_silent () =
  (* Acceptance criterion: zero findings on a clean CBCAST run (no faults:
     fault-induced lag outliers are legitimate findings, not noise). *)
  List.iter
    (fun seed ->
      let plan =
        Fault_plan.with_faults
          (Fault_plan.generate ~seed Fault_plan.default_profile)
          []
      in
      let exec, verdict =
        Runner.exec_of_plan ~config:cbcast ~seed plan
      in
      (match verdict with
       | Runner.Pass _ -> ()
       | Runner.Fail r ->
         Alcotest.failf "clean run failed the oracle:@.%a" Runner.pp_report r);
      let result = Analyzer.analyze exec in
      check_int
        (Printf.sprintf "seed %d silent" seed)
        0
        (List.length result.Analyzer.findings))
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]

let test_hb_consistent_with_oracle_verdicts () =
  (* qcheck property over checker seeds: the happened-before DAG of a
     recorded run is acyclic, and when the oracles pass a cbcast run the
     analyzer agrees — no causal-order, cycle, or duplicate findings. *)
  let property seed =
    let exec, verdict = Runner.exec_of_seed ~config:cbcast ~seed () in
    let result = Analyzer.analyze exec in
    let acyclic = Hb.find_cycle result.Analyzer.hb = None in
    match verdict with
    | Runner.Fail _ ->
      (* the checker's own sweeps assert this never happens; if it does,
         don't let the analyzer contradict silence *)
      acyclic
    | Runner.Pass _ ->
      acyclic
      && (not (has_kind Finding.Causal_order result.Analyzer.findings))
      && (not (has_kind Finding.Causal_cycle result.Analyzer.findings))
      && not (has_kind Finding.Duplicate_uid result.Analyzer.findings)
  in
  QCheck.Test.make ~count:100 ~name:"hb acyclic & consistent with oracle"
    (QCheck.int_bound 100_000) property

let test_analyzer_catches_broken_bss () =
  (* Mutation cross-check: disable the BSS causal delivery condition; on a
     seed the oracle convicts, the analyzer's offline causal-order detector
     must convict too. *)
  Delivery_queue.chaos_disable_causal_check := true;
  Fun.protect
    ~finally:(fun () -> Delivery_queue.chaos_disable_causal_check := false)
    (fun () ->
      let rec hunt seed =
        if seed > 200 then Alcotest.fail "no violating seed found"
        else
          let exec, verdict =
            Runner.exec_of_seed ~config:cbcast ~seed ()
          in
          match verdict with
          | Runner.Pass _ -> hunt (seed + 1)
          | Runner.Fail _ ->
            let result = Analyzer.analyze exec in
            check_bool
              (Printf.sprintf "seed %d: analyzer convicts too" seed)
              true
              (has_kind Finding.Causal_order result.Analyzer.findings)
      in
      hunt 0)

let test_report_json_schema () =
  let exec, _ = Runner.exec_of_seed ~config:cbcast ~seed:3 () in
  let doc = Analyzer.report_json ~mode:"test" [ Analyzer.analyze exec ] in
  (* the document reparses and carries the schema's fixed keys *)
  (match Json.of_string (Json.to_string doc) with
   | Ok reparsed -> check_bool "reparses identically" true (reparsed = doc)
   | Error e -> Alcotest.failf "emitted JSON does not parse: %s" e);
  check_bool "schema_version" true
    (Option.bind (Json.member "schema_version" doc) Json.to_int = Some 1);
  check_bool "tool" true
    (Option.bind (Json.member "tool" doc) Json.to_str = Some "repro-analyze");
  check_bool "counts present" true
    (Option.is_some
       (Option.bind (Json.member "counts" doc) (Json.member "error")))

(* Sanitizer report pin: the MD5 of the JSON report over the checker's
   executions of seeds 0-19 for every ordering, plus one broken-BSS run the
   checker convicts (its causal-order findings carry Hb.shortest_path
   evidence). Findings, their order, summaries, evidence and per-source
   stats all feed the digest, so a refactor of the detectors, the judge or
   the execution export that moves any of them moves it; so does a
   protocol change that moves an execution (re-taken when a restarted flush
   round began keeping its joiners: seed 1 of every ordering moved; and
   when a Reliable link began giving up its window to a member the view
   removed: the seeds with a crash moved). *)
let sanitizer_report_digest () =
  let clean =
    List.concat_map
      (fun (_, ordering) ->
        List.init 20 (fun seed ->
            Analyzer.analyze
              (fst
                 (Runner.exec_of_seed ~config:(Runner.config ordering) ~seed ()))))
      Runner.orderings
  in
  let broken =
    Delivery_queue.chaos_disable_causal_check := true;
    Fun.protect
      ~finally:(fun () -> Delivery_queue.chaos_disable_causal_check := false)
      (fun () -> Runner.exec_of_seed ~config:cbcast ~seed:0 ())
  in
  (match snd broken with
   | Runner.Fail _ -> ()
   | Runner.Pass _ -> Alcotest.fail "broken BSS seed 0 passed the checker");
  let convicted = Analyzer.analyze (fst broken) in
  check_bool "broken run has causal-order evidence" true
    (List.exists
       (fun (f : Finding.t) ->
         f.Finding.kind = Finding.Causal_order && f.Finding.evidence <> [])
       convicted.Analyzer.findings);
  let doc = Analyzer.report_json ~mode:"pin" (clean @ [ convicted ]) in
  Digest.to_hex (Digest.string (Json.to_string doc))

let test_sanitizer_report_pinned () =
  check_string "seeds 0-19 all orderings + broken BSS seed 0"
    "3198bb7bb70c0e2012ff89648cb5e54b"
    (sanitizer_report_digest ())

(* --- suite ------------------------------------------------------------------ *)

let () =
  Alcotest.run "repro_analyze"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "hb",
        [
          Alcotest.test_case "reachability" `Quick test_hb_reachability;
          Alcotest.test_case "transitive reduction" `Quick
            test_hb_transitive_reduction;
          Alcotest.test_case "cycle witness" `Quick test_hb_cycle_witness;
        ] );
      ( "detectors",
        [
          Alcotest.test_case "duplicate uid" `Quick test_detect_duplicate_uid;
          Alcotest.test_case "causal cycle" `Quick test_detect_causal_cycle;
          Alcotest.test_case "causal-order inversion" `Quick
            test_detect_causal_order_violation;
          Alcotest.test_case "fifo mode exempt" `Quick
            test_fifo_mode_not_blamed_for_causal_inversion;
          Alcotest.test_case "causal-order through undelivered" `Quick
            test_causal_order_through_undelivered;
          QCheck_alcotest.to_alcotest (test_judge_convicts_dag_inversions ());
          Alcotest.test_case "hidden channel" `Quick test_detect_hidden_channel;
          Alcotest.test_case "covered channel silent" `Quick
            test_covered_channel_not_flagged;
          Alcotest.test_case "false causality" `Quick
            test_detect_false_causality;
          Alcotest.test_case "stability lag" `Quick test_detect_stability_lag;
        ] );
      ( "diagram",
        [
          Alcotest.test_case "layout and row order" `Quick test_diagram_layout;
          Alcotest.test_case "cells widen the column" `Quick
            test_diagram_cells_widen;
          Alcotest.test_case "fig1 obs log renders" `Quick
            test_diagram_of_fig1_log;
        ] );
      ( "figures",
        [
          Alcotest.test_case "fig1 clean" `Quick test_fig1_clean;
          Alcotest.test_case "fig2 shop floor" `Quick test_fig2_hidden_channel;
          Alcotest.test_case "fig3 fire alarm" `Quick test_fig3_hidden_channel;
          Alcotest.test_case "deceit store out-of-band" `Quick
            test_deceit_store_hidden_channel;
          Alcotest.test_case "false causality experiment" `Quick
            test_false_causality_experiment;
        ] );
      ( "figures-pc",
        [
          Alcotest.test_case "fig1 clean under pc" `Quick test_fig1_pc_clean;
          Alcotest.test_case "fig2 shop floor under pc" `Quick
            test_fig2_pc_hidden_channel;
          Alcotest.test_case "fig3 fire alarm under pc" `Quick
            test_fig3_pc_hidden_channel;
          Alcotest.test_case "fig4 trading under pc" `Quick
            test_fig4_pc_false_crossing;
        ] );
      ( "checker",
        [
          Alcotest.test_case "clean cbcast runs silent" `Slow
            test_clean_cbcast_run_is_silent;
          QCheck_alcotest.to_alcotest (test_hb_consistent_with_oracle_verdicts ());
          Alcotest.test_case "broken BSS convicted offline" `Slow
            test_analyzer_catches_broken_bss;
          Alcotest.test_case "findings document schema" `Quick
            test_report_json_schema;
          Alcotest.test_case "sanitizer report pinned" `Slow
            test_sanitizer_report_pinned;
        ] );
    ]
