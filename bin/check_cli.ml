(* repro-check: the deterministic schedule-exploration checker.

   Sweeps seeds, each of which fully determines a fault plan (loss and
   duplication bursts, partitions, crashes, partial multicasts, joins) and
   an engine schedule; protocol invariant oracles judge every run. On a
   violation the fault plan is shrunk and the counterexample printed with
   its seed and any non-default settings, so
   `repro-check --ordering cbcast --seeds 1 --start-seed N`, plus
   `--causal-impl pc` or `--wire encoded` when its header names the pc
   causal layer or the encoded wire, replays it exactly. *)

module Config = Repro_catocs.Config
module Fault_plan = Repro_check.Fault_plan
module Runner = Repro_check.Runner

let parse_orderings = function
  | [ "all" ] | [] -> Ok (List.map snd Runner.orderings)
  | names ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | name :: rest -> (
        match Runner.ordering_of_string name with
        | Some o -> go (o :: acc) rest
        | None ->
          Error
            (Printf.sprintf
               "unknown ordering %S (one of: %s, all)" name
               (String.concat ", " (List.map fst Runner.orderings))))
    in
    go [] names

let parse_causal_impl = function
  | "bss" | "vector" -> Ok Config.Vector_causal
  | "pc" -> Ok Config.Pc_causal
  | s -> Error (Printf.sprintf "unknown causal impl %S (one of: bss, pc)" s)

let run_check seeds start_seed ordering_names causal_impl_name wire_format
    members duration_ms root_sends max_faults domains fingerprints_file
    no_shrink no_crashes no_partitions no_loss no_joins verbose =
  match
    (parse_orderings ordering_names, parse_causal_impl causal_impl_name)
  with
  | Error msg, _ | _, Error msg ->
    prerr_endline msg;
    2
  | Ok orderings, Ok causal_impl ->
    let engine_impl =
      if domains <= 0 then Engine.Sequential
      else Engine.Parallel { domains }
    in
    let profile =
      {
        Fault_plan.members;
        duration = Sim_time.ms duration_ms;
        root_sends;
        max_faults;
        allow_crashes = not no_crashes;
        allow_partitions = not no_partitions;
        allow_loss = not no_loss;
        allow_joins = not no_joins;
      }
    in
    let on_seed =
      if verbose then
        Some
          (fun ~seed ~ok ->
            Printf.printf "  seed %d: %s\n%!" seed (if ok then "ok" else "FAIL"))
      else None
    in
    let config ordering =
      { (Config.with_causal_impl causal_impl (Runner.config ordering)) with
        Config.wire_format }
    in
    let check_one ordering =
      let name = Config.ordering_name ordering in
      Printf.printf "%-10s sweeping %d seeds from %d ...%!" name seeds
        start_seed;
      let r =
        Runner.sweep ~profile ~shrink:(not no_shrink) ~start_seed ?on_seed
          ~engine_impl ~config:(config ordering) ~seeds ()
      in
      match r.Runner.failed with
      | None ->
        Printf.printf " ok (%d sends, %d deliveries)\n" r.Runner.total_sends
          r.Runner.total_deliveries;
        true
      | Some report ->
        Printf.printf " VIOLATION at seed %d\n\n%s\n" report.Runner.seed
          (Format.asprintf "%a" Runner.pp_report report);
        false
    in
    (* Fingerprint mode: one canonical verdict line per (ordering, seed),
       written to FILE. The file is a pure function of (seeds, profile,
       impls) — in particular it is identical for every --domains value,
       which is how CI asserts cross-domain determinism: run twice with
       different domain counts and diff the two files. *)
    let fingerprint_one ordering =
      let name = Config.ordering_name ordering in
      let ok = ref true in
      let lines =
        List.init seeds (fun i ->
            let seed = start_seed + i in
            let v =
              Runner.run_seed ~profile ~shrink:(not no_shrink) ~engine_impl
                ~config:(config ordering) ~seed ()
            in
            (match v with Runner.Fail _ -> ok := false | Runner.Pass _ -> ());
            Printf.sprintf "%s seed=%d %s" name seed (Runner.fingerprint v))
      in
      (lines, !ok)
    in
    (match fingerprints_file with
     | None -> if List.for_all check_one orderings then 0 else 1
     | Some file ->
       let per_ordering = List.map fingerprint_one orderings in
       let oc = open_out file in
       List.iter
         (fun (lines, _) ->
           List.iter (fun l -> output_string oc (l ^ "\n")) lines)
         per_ordering;
       close_out oc;
       let all_ok = List.for_all snd per_ordering in
       Printf.printf "wrote %d fingerprints to %s%s\n"
         (List.length per_ordering * seeds)
         file
         (if all_ok then "" else " (with violations)");
       if all_ok then 0 else 1)

open Cmdliner

let cmd =
  let seeds =
    Arg.(
      value & opt int 100
      & info [ "seeds"; "n" ] ~docv:"N" ~doc:"Number of seeds to sweep.")
  in
  let start_seed =
    Arg.(
      value & opt int 0
      & info [ "start-seed" ] ~docv:"SEED" ~doc:"First seed of the sweep.")
  in
  let ordering =
    Arg.(
      value
      & opt_all string [ "all" ]
      & info [ "ordering"; "o" ] ~docv:"MODE"
          ~doc:
            "Ordering mode(s) to check: fbcast, cbcast, abcast, lamport or \
             all. Repeatable.")
  in
  let causal_impl =
    Arg.(
      value & opt string "bss"
      & info [ "causal-impl" ] ~docv:"IMPL"
          ~doc:
            "Causal-delivery implementation for the causal-layer modes: bss \
             (vector timestamps) or pc (PC-broadcast constant metadata).")
  in
  let wire_format =
    Arg.(
      value
      & opt
          (enum
             [ ("structural", Config.Structural); ("encoded", Config.Encoded) ])
          Config.Structural
      & info [ "wire" ] ~docv:"FORMAT"
          ~doc:
            "Wire format: structural (message values cross the network) or \
             encoded (every message is a Wire_codec frame, decoded by each \
             receiver).")
  in
  let members =
    Arg.(
      value & opt int Fault_plan.default_profile.Fault_plan.members
      & info [ "members" ] ~docv:"N" ~doc:"Initial group size (minimum 3).")
  in
  let duration_ms =
    Arg.(
      value & opt int 400
      & info [ "duration-ms" ] ~docv:"MS"
          ~doc:"Active phase length before quiescence.")
  in
  let root_sends =
    Arg.(
      value & opt int Fault_plan.default_profile.Fault_plan.root_sends
      & info [ "sends" ] ~docv:"N" ~doc:"Root multicasts per run.")
  in
  let max_faults =
    Arg.(
      value & opt int Fault_plan.default_profile.Fault_plan.max_faults
      & info [ "max-faults" ] ~docv:"N" ~doc:"Upper bound on faults per plan.")
  in
  let domains =
    Arg.(
      value & opt int 0
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Run on the parallel engine with $(docv) worker domains (N >= \
             1; verdicts and fingerprints are identical for every N). \
             Default: the sequential reference engine.")
  in
  let fingerprints =
    Arg.(
      value & opt (some string) None
      & info [ "fingerprints" ] ~docv:"FILE"
          ~doc:
            "Instead of the sweep summary, write one canonical verdict \
             fingerprint per (ordering, seed) to $(docv); diffing two such \
             files asserts cross-run determinism (e.g. --domains 1 vs \
             --domains 2). Exits non-zero if any seed fails.")
  in
  let no_shrink =
    Arg.(
      value & flag
      & info [ "no-shrink" ] ~doc:"Report the raw failing plan unshrunk.")
  in
  let no_crashes =
    Arg.(value & flag & info [ "no-crashes" ] ~doc:"Disable crash faults.")
  in
  let no_partitions =
    Arg.(
      value & flag & info [ "no-partitions" ] ~doc:"Disable partition faults.")
  in
  let no_loss =
    Arg.(
      value & flag
      & info [ "no-loss" ] ~doc:"Disable loss and duplication bursts.")
  in
  let no_joins =
    Arg.(value & flag & info [ "no-joins" ] ~doc:"Disable join faults.")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print every seed.")
  in
  let doc =
    "Deterministic schedule-exploration checker for the CATOCS stacks."
  in
  Cmd.v
    (Cmd.info "repro-check" ~doc)
    Term.(
      const run_check $ seeds $ start_seed $ ordering $ causal_impl
      $ wire_format $ members
      $ duration_ms $ root_sends $ max_faults $ domains $ fingerprints
      $ no_shrink $ no_crashes $ no_partitions $ no_loss $ no_joins $ verbose)

let () = exit (Cmd.eval' cmd)
