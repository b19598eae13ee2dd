module Finding = Repro_analyze.Finding
module Json = Repro_analyze.Json

let default_roots = [ "lib"; "bin" ]

(* lib/sim owns the simulated clock and the seeded PRNG: determinism rules
   are exempt there (the aliasing inventory still applies — the engine's
   state is exactly what a domain refactor must partition). The same scope
   is where the parallel engine's worker domains execute, so the inventory
   escalates: non-Atomic module-level mutable state is a domain-unready
   error, not an info-level note. *)
let sim_exempt path =
  let parts = String.split_on_char '/' path in
  List.exists (( = ) "sim") (List.filteri (fun i _ -> i < 2) parts)

type result = {
  roots : string list;
  files : int;
  kept : Rule.t list;
  suppressed : Rule.t list;
  stale : Baseline.entry list;
}

let scan ?(baseline = Baseline.empty) ?(roots = default_roots) ~repo_root () =
  let root_units =
    List.concat_map (fun root -> Src.load_tree ~repo_root root) roots
  in
  let per_file =
    List.concat_map
      (fun u ->
        let sim = sim_exempt u.Src.path in
        Ast_rules.scan ~exempt_determinism:sim ~parallel_scope:sim u)
      root_units
  in
  let contract_findings =
    (* the cross-checks need the whole contract surface, whatever the
       per-file roots were: lib + bin for definitions and dispatch sites,
       test for convictions, bench for the bench family *)
    let extra rel =
      List.filter
        (fun u ->
          not (List.exists (fun v -> v.Src.path = u.Src.path) root_units))
        (Src.load_tree ~repo_root rel)
    in
    Contracts.check
      (root_units @ extra "lib" @ extra "bin" @ extra "test" @ extra "bench")
  in
  let all = List.sort Rule.compare (per_file @ contract_findings) in
  let applied = Baseline.apply baseline all in
  {
    roots;
    files = List.length root_units;
    kept = applied.Baseline.kept;
    suppressed = applied.Baseline.suppressed;
    stale = applied.Baseline.stale;
  }

let worst result =
  List.fold_left
    (fun acc (f : Rule.t) ->
      match acc with
      | None -> Some f.Rule.severity
      | Some s ->
        if Finding.compare_severity f.Rule.severity s > 0 then
          Some f.Rule.severity
        else acc)
    None result.kept

let count sev result =
  List.length
    (List.filter (fun (f : Rule.t) -> f.Rule.severity = sev) result.kept)

let report_json result =
  Json.Obj
    [
      ("schema_version", Json.Int 1);
      ("tool", Json.Str "repro-lint");
      ("roots", Json.Arr (List.map (fun r -> Json.Str r) result.roots));
      ( "baseline",
        Json.Obj
          [
            ("suppressed", Json.Int (List.length result.suppressed));
            ( "stale",
              Json.Arr
                (List.map
                   (fun (e : Baseline.entry) ->
                     Json.Obj
                       [
                         ("rule", Json.Str e.Baseline.rule);
                         ("source", Json.Str e.Baseline.source);
                         ("symbol", Json.Str e.Baseline.symbol);
                       ])
                   result.stale) );
          ] );
      ( "findings",
        Json.Arr (List.map (fun f -> Finding.to_json (Rule.to_finding f)) result.kept)
      );
      ( "counts",
        Json.Obj
          [
            ("error", Json.Int (count Finding.Error result));
            ("warning", Json.Int (count Finding.Warning result));
            ("info", Json.Int (count Finding.Info result));
          ] );
    ]
