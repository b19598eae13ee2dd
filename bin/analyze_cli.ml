(* repro-analyze: the causal sanitizer.

   Offline static analysis over recorded executions: build the
   happened-before DAG, detect hidden channels (Figures 1-3), quantify
   false causality (Section 3.4), flag causal cycles, duplicate uids and
   stability-lag outliers. Findings are printed, and [--out FILE] also
   writes them as a stable JSON document. *)

module Runner = Repro_check.Runner
module Fault_plan = Repro_check.Fault_plan
module Analyzer = Repro_analyze.Analyzer
module Finding = Repro_analyze.Finding
module Exec = Repro_analyze.Exec
module Recorder = Repro_analyze.Exec.Recorder
module Json = Repro_analyze.Json
module Diagrams = Repro_experiments.Diagrams
module False_causality = Repro_experiments.False_causality
module Deceit_store = Repro_apps.Deceit_store

let fail_levels = [ "error"; "warning"; "info"; "never" ]

let exceeds_fail_level ~fail_on findings =
  match (Analyzer.worst_severity findings, fail_on) with
  | _, "never" -> false
  | None, _ -> false
  | Some worst, "error" -> Finding.compare_severity worst Finding.Error >= 0
  | Some worst, "warning" -> Finding.compare_severity worst Finding.Warning >= 0
  | Some _, _ -> true (* "info": any finding at all *)

let write_out ~out json =
  Option.iter
    (fun out ->
      let oc = open_out out in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc (Json.to_string json));
      Printf.printf "findings written to %s\n" out)
    out

let print_findings findings =
  if findings = [] then print_endline "no findings"
  else
    List.iter
      (fun f -> Format.printf "%a@." Finding.pp f)
      (List.sort Finding.compare findings)

let finish ~mode ~out ~fail_on ?(extra = []) results =
  let findings = Analyzer.all_findings ~extra results in
  print_findings findings;
  write_out ~out (Analyzer.report_json ~mode ~extra results);
  if exceeds_fail_level ~fail_on findings then 1 else 0

(* --- check: analyze checker sweeps ----------------------------------------- *)

let run_check ordering_name seeds start_seed clean out fail_on =
  match Runner.ordering_of_string ordering_name with
  | None ->
    Printf.eprintf "unknown ordering %S (one of: %s)\n" ordering_name
      (String.concat ", " (List.map fst Runner.orderings));
    2
  | Some ordering ->
    let config = Runner.config ordering in
    let rec go seed acc =
      if seed >= start_seed + seeds then Some (List.rev acc)
      else begin
        let exec, verdict =
          if clean then
            let plan =
              Fault_plan.with_faults
                (Fault_plan.generate ~seed Fault_plan.default_profile)
                []
            in
            Runner.exec_of_plan ~config ~seed plan
          else Runner.exec_of_seed ~config ~seed ()
        in
        match verdict with
        | Runner.Fail report ->
          Printf.printf "oracle VIOLATION at seed %d\n\n%s\n" seed
            (Format.asprintf "%a" Runner.pp_report report);
          None
        | Runner.Pass _ -> go (seed + 1) (Analyzer.analyze exec :: acc)
      end
    in
    (match go start_seed [] with
     | None -> 1
     | Some results ->
       Printf.printf "analyzed %d %s seeds (%s)\n" seeds ordering_name
         (if clean then "fault-free" else "faulty");
       finish ~mode:"check" ~out ~fail_on results)

(* --- experiment: analyze instrumented app/experiment executions ------------ *)

let deceit_exec () =
  let recorder =
    Recorder.create ~ordering:Exec.Causal_order ~label:"deceit-store crash" ()
  in
  ignore
    (Deceit_store.run ~recorder
       { Deceit_store.default_config with
         Deceit_store.crash = Some (1, Sim_time.ms 300);
         Deceit_store.out_of_band_writes = 12 });
  Recorder.exec recorder

let experiments : (string * (unit -> Exec.t)) list =
  let pc = Repro_catocs.Config.Pc_causal in
  [
    ("fig1", (fun () -> Diagrams.fig1_exec ()));
    ("fig2", (fun () -> Diagrams.fig2_exec ()));
    ("fig3", (fun () -> Diagrams.fig3_exec ()));
    (* the same executions over the PC-broadcast causal layer: fig1 stays
       clean, the fig2/fig3 channels stay hidden — `--expect` pins both *)
    ("fig1-pc", (fun () -> Diagrams.fig1_exec ~causal_impl:pc ()));
    ("fig2-pc", (fun () -> Diagrams.fig2_exec ~causal_impl:pc ()));
    ("fig3-pc", (fun () -> Diagrams.fig3_exec ~causal_impl:pc ()));
    ("false-causality", (fun () -> False_causality.record ()));
    ("deceit-store", deceit_exec);
  ]

let run_experiment name expects out fail_on =
  match List.assoc_opt name experiments with
  | None ->
    Printf.eprintf "unknown experiment %S (one of: %s)\n" name
      (String.concat ", " (List.map fst experiments));
    2
  | Some produce ->
    let result = Analyzer.analyze (produce ()) in
    let status =
      finish ~mode:(Printf.sprintf "experiment:%s" name) ~out ~fail_on
        [ result ]
    in
    let missing =
      List.filter
        (fun kind_name ->
          not
            (List.exists
               (fun (f : Finding.t) -> Finding.kind_name f.kind = kind_name)
               result.Analyzer.findings))
        expects
    in
    List.iter
      (fun kind -> Printf.eprintf "expected a %s finding, found none\n" kind)
      missing;
    if missing <> [] then 1 else status

(* --- watch: runtime watchdogs over recorded telemetry ---------------------- *)

module Telemetry = Repro_experiments.Telemetry
module Watch = Repro_obs.Watch

let finding_of_watch ~source (w : Watch.finding) : Finding.t =
  let kind =
    (* rule names are the finding kind spellings; anything unrecognised
       (a future rule the schema has not caught up with) degrades to the
       generic contract-violation kind rather than being dropped *)
    match Finding.kind_of_name w.Watch.rule with
    | Some k -> k
    | None -> Finding.Contract_violation
  in
  let severity =
    match w.Watch.severity with
    | Watch.Info -> Finding.Info
    | Watch.Warning -> Finding.Warning
    | Watch.Error -> Finding.Error
  in
  {
    Finding.kind;
    severity;
    source;
    summary = w.Watch.summary;
    uids = [];
    pids = [];
    evidence = w.Watch.evidence;
  }

let run_watch names out fail_on =
  let names =
    if names = [] then List.map (fun s -> s.Telemetry.name) Telemetry.all
    else names
  in
  let unknown =
    List.filter (fun n -> Telemetry.find n = None) names
  in
  if unknown <> [] then begin
    Printf.eprintf "unknown scenario(s) %s (one of: %s)\n"
      (String.concat ", " unknown)
      (String.concat ", " (List.map (fun s -> s.Telemetry.name) Telemetry.all));
    2
  end
  else begin
    let per_scenario =
      List.map
        (fun name ->
          let s = Option.get (Telemetry.find name) in
          let log, _names, snapshot = s.Telemetry.run () in
          let watch_findings =
            match snapshot with
            | [] -> Watch.run log
            | _ -> Watch.run ~snapshot log
          in
          Printf.printf "%s: %d records, %d watchdog finding(s)\n" name
            (Repro_obs.Log.length log)
            (List.length watch_findings);
          (name, List.map (finding_of_watch ~source:name) watch_findings))
        names
    in
    let findings = List.concat_map snd per_scenario in
    print_findings findings;
    write_out ~out
      (Analyzer.report_json ~mode:"watch" ~extra:per_scenario []);
    if exceeds_fail_level ~fail_on findings then 1 else 0
  end

(* --- command line ----------------------------------------------------------- *)

open Cmdliner

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out"; "o" ] ~docv:"FILE"
        ~doc:"Also write the findings JSON document to FILE.")

let fail_on_arg =
  Arg.(
    value
    & opt (enum (List.map (fun l -> (l, l)) fail_levels)) "error"
    & info [ "fail-on" ] ~docv:"LEVEL"
        ~doc:
          "Exit non-zero when a finding at or above LEVEL exists: error, \
           warning, info or never.")

let check_cmd =
  let ordering =
    Arg.(
      value & opt string "cbcast"
      & info [ "ordering" ] ~docv:"MODE"
          ~doc:"Ordering mode: fbcast, cbcast, abcast or lamport.")
  in
  let seeds =
    Arg.(
      value & opt int 20
      & info [ "seeds"; "n" ] ~docv:"N" ~doc:"Number of seeds to analyze.")
  in
  let start_seed =
    Arg.(
      value & opt int 0
      & info [ "start-seed" ] ~docv:"SEED" ~doc:"First seed.")
  in
  let clean =
    Arg.(
      value & flag
      & info [ "clean" ]
          ~doc:"Run the seeds' workloads with their fault lists emptied.")
  in
  let doc = "Analyze recorded checker executions." in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      const run_check $ ordering $ seeds $ start_seed $ clean $ out_arg
      $ fail_on_arg)

let experiment_cmd =
  let name_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"NAME"
          ~doc:
            "fig1, fig2, fig3 (with -pc variants for the PC-broadcast \
             causal layer), false-causality or deceit-store.")
  in
  let expects =
    Arg.(
      value & opt_all string []
      & info [ "expect" ] ~docv:"KIND"
          ~doc:
            "Require at least one finding of this kind (e.g. hidden-channel, \
             false-causality). Repeatable.")
  in
  let fail_on =
    Arg.(
      value
      & opt (enum (List.map (fun l -> (l, l)) fail_levels)) "never"
      & info [ "fail-on" ] ~docv:"LEVEL"
          ~doc:
            "Exit non-zero when a finding at or above LEVEL exists (default \
             never: anomaly experiments are supposed to have findings).")
  in
  let doc = "Analyze a recorded experiment execution (the paper's figures)." in
  Cmd.v (Cmd.info "experiment" ~doc)
    Term.(const run_experiment $ name_arg $ expects $ out_arg $ fail_on)

let watch_cmd =
  let names_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"SCENARIO"
          ~doc:"Telemetry scenarios to watch (default: all).")
  in
  let fail_on =
    Arg.(
      value
      & opt (enum (List.map (fun l -> (l, l)) fail_levels)) "error"
      & info [ "fail-on" ] ~docv:"LEVEL"
          ~doc:
            "Exit non-zero when a watchdog finding at or above LEVEL exists: \
             error, warning, info or never.")
  in
  let doc =
    "Replay the runtime watchdogs (stability-stall, buffer-growth, \
     ordering-outlier, copy-conservation, duplicate-copy-rate) over the \
     registered telemetry scenarios and report findings as analyzer JSON."
  in
  Cmd.v (Cmd.info "watch" ~doc)
    Term.(const run_watch $ names_arg $ out_arg $ fail_on)

let cmd =
  let doc = "Causal sanitizer: happened-before analysis of recorded runs." in
  Cmd.group (Cmd.info "repro-analyze" ~doc)
    [ check_cmd; experiment_cmd; watch_cmd ]

let () = exit (Cmd.eval' cmd)
