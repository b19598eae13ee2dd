(* repro-lint: AST-grounded static analysis for determinism, aliasing
   discipline and domain-readiness.

   Parses every .ml under the given roots with the compiler's own parser
   (compiler-libs) and runs three rule families: determinism (wall-clock /
   ambient-PRNG reads, hash-order leaks, polymorphic comparison on mutable
   state, Obj.magic), aliasing (the module-level shared-mutable-surface
   inventory the domain-sharding refactor must partition, structural = on
   clock values), and protocol contracts (chaos hooks without test/
   convictions, Config dispatch variants missing from the checker /
   scaling / bench families). Findings not in the committed baseline
   (LINT_baseline.json) fail the run. *)

module Rule = Repro_lint.Rule
module Driver = Repro_lint.Driver
module Baseline = Repro_lint.Baseline
module Finding = Repro_analyze.Finding
module Json = Repro_analyze.Json

let fail_levels = [ "error"; "warning"; "info"; "never" ]

let exceeds ~fail_on worst =
  match (worst, fail_on) with
  | _, "never" -> false
  | None, _ -> false
  | Some w, "error" -> Finding.compare_severity w Finding.Error >= 0
  | Some w, "warning" -> Finding.compare_severity w Finding.Warning >= 0
  | Some _, _ -> true

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
      (fun f -> Format.printf "%a@." Finding.pp (Rule.to_finding f))
      findings

let run roots repo_root baseline_path no_baseline update_baseline
    list_rules out fail_on =
  if list_rules then begin
    List.iter
      (fun (m : Rule.meta) ->
        Printf.printf "%-22s %-12s %-8s %s\n" m.Rule.id
          (Rule.family_name m.Rule.meta_family)
          (Finding.severity_name m.Rule.default_severity)
          m.Rule.doc)
      Rule.catalog;
    0
  end
  else
    let roots = if roots = [] then Driver.default_roots else roots in
    let baseline =
      if no_baseline || update_baseline then Ok Baseline.empty
      else if Sys.file_exists baseline_path then Baseline.load baseline_path
      else Ok Baseline.empty
    in
    match baseline with
    | Error e ->
      Printf.eprintf "cannot load baseline %s: %s\n" baseline_path e;
      2
    | Ok baseline ->
      let result = Driver.scan ~baseline ~roots ~repo_root () in
      if update_baseline then begin
        let entries = Baseline.of_findings result.Driver.kept in
        Baseline.save baseline_path entries;
        Printf.printf "baseline written to %s (%d entries)\n" baseline_path
          (List.length entries);
        0
      end
      else begin
        print_findings result.Driver.kept;
        if result.Driver.suppressed <> [] then
          Printf.printf "%d finding(s) suppressed by baseline\n"
            (List.length result.Driver.suppressed);
        List.iter
          (fun (e : Baseline.entry) ->
            Printf.printf "stale baseline entry: %s %s %s\n" e.Baseline.rule
              e.Baseline.source e.Baseline.symbol)
          result.Driver.stale;
        write_out ~out (Driver.report_json result);
        if exceeds ~fail_on (Driver.worst result) then 1 else 0
      end

open Cmdliner

let roots_arg =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"DIR"
        ~doc:"Roots to scan with the per-file rules (default: lib bin).")

let repo_root_arg =
  Arg.(
    value & opt string "."
    & info [ "repo-root" ] ~docv:"DIR"
        ~doc:
          "Repository root; roots and contract families are resolved \
           against it.")

let baseline_arg =
  Arg.(
    value
    & opt string "LINT_baseline.json"
    & info [ "baseline" ] ~docv:"FILE"
        ~doc:
          "Suppression baseline; loaded when it exists (a missing file \
           means an empty baseline).")

let no_baseline_arg =
  Arg.(
    value & flag
    & info [ "no-baseline" ] ~doc:"Ignore the baseline even if present.")

let update_baseline_arg =
  Arg.(
    value & flag
    & info [ "update-baseline" ]
        ~doc:
          "Regenerate the baseline from the current findings (dropping \
           stale entries) and exit successfully.")

let list_rules_arg =
  Arg.(
    value & flag & info [ "list-rules" ] ~doc:"Print the rule catalog and exit.")

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
          "Exit non-zero when an unsuppressed finding at or above LEVEL \
           exists: error, warning, info or never.")

let cmd =
  let doc =
    "AST-grounded determinism / aliasing / contract lint over OCaml sources."
  in
  Cmd.v
    (Cmd.info "repro-lint" ~doc)
    Term.(
      const run $ roots_arg $ repo_root_arg $ baseline_arg
      $ no_baseline_arg $ update_baseline_arg $ list_rules_arg $ out_arg
      $ fail_on_arg)

let () = exit (Cmd.eval' cmd)
