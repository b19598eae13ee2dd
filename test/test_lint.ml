(* Tests for repro-lint (lib/lint): per-rule fixture convictions, attribute
   suppression, the baseline algebra, the repo-level contract cross-checks
   (including the mutation-conviction demos: delete a chaos hook's test
   reference, or a dispatch variant's bench usage, and the lint must fail),
   and the real tree being clean modulo the committed baseline. *)

module Src = Repro_lint.Src
module Rule = Repro_lint.Rule
module Ast_rules = Repro_lint.Ast_rules
module Contracts = Repro_lint.Contracts
module Baseline = Repro_lint.Baseline
module Driver = Repro_lint.Driver

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Fixtures are declared as test deps, so they sit next to the executable
   under dune runtest; fall back to the source tree for bare dune exec. *)
let fixture name =
  let rel = "lint_fixtures/" ^ name in
  if Sys.file_exists rel then Src.load ~repo_root:"." rel
  else Src.load ~repo_root:"." ("test/" ^ rel)

let count rule findings =
  List.length (List.filter (fun f -> f.Rule.rule = rule) findings)

(* The tests run from _build/default/test; the real tree (and the committed
   baseline) live at the repo root, found by walking up to dune-project. *)
let repo_root () =
  let rec go dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then failwith "repo root (dune-project) not found"
      else go parent
  in
  go (Sys.getcwd ())

let replace_all ~needle ~by s =
  let n = String.length needle in
  let buf = Buffer.create (String.length s) in
  let i = ref 0 in
  while !i <= String.length s - n do
    if String.sub s !i n = needle then begin
      Buffer.add_string buf by;
      i := !i + n
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.add_string buf (String.sub s !i (String.length s - !i));
  Buffer.contents buf

(* --- per-rule fixture convictions ------------------------------------------- *)

let test_fixture_convictions () =
  let expect file rule n =
    let findings = Ast_rules.scan (fixture file) in
    check_int (file ^ " " ^ rule) n (count rule findings)
  in
  expect "det_wall_clock.ml" "wall-clock" 2;
  expect "det_random.ml" "ambient-random" 2;
  expect "det_hashtbl.ml" "hashtbl-order" 2;
  expect "det_poly_compare.ml" "poly-compare-mutable" 3;
  expect "det_obj_magic.ml" "obj-magic" 1;
  expect "alias_inventory.ml" "toplevel-ref" 1;
  expect "alias_inventory.ml" "toplevel-hashtbl" 1;
  expect "alias_inventory.ml" "mutable-field" 1;
  expect "alias_clock_eq.ml" "clock-structural-eq" 2;
  (* a constructor returning a fresh ref is not shared state *)
  let inventory = Ast_rules.scan (fixture "alias_inventory.ml") in
  check_bool "make_cell not flagged" false
    (List.exists (fun f -> f.Rule.symbol = "make_cell") inventory)

let test_parse_error () =
  let unit_ = Src.of_string ~path:"broken.ml" "let = =" in
  let findings = Ast_rules.scan unit_ in
  check_int "one finding" 1 (List.length findings);
  check_bool "parse-error" true
    (match findings with [ f ] -> f.Rule.rule = "parse-error" | _ -> false)

(* --- comment, string and token boundaries ------------------------------------ *)

(* The AST lint reads identifiers off the parsetree, so a rule's spelling
   inside a comment or a string literal is never a hit. *)
let test_strip_comments_and_strings () =
  let unit_ =
    Src.of_string ~path:"fake.ml"
      "let a = (* Unix.gettimeofday *) 1\nlet b = \"Random.self_init\"\n"
  in
  check_int "no findings" 0 (List.length (Ast_rules.scan unit_))

(* An ambient wall-clock read is one error-severity determinism hazard;
   the same name in a comment or string, or a longer identifier sharing a
   rule's spelling, is not. *)
let test_scan_flags_hazards () =
  let scan text = Ast_rules.scan (Src.of_string ~path:"fake.ml" text) in
  let flagged = scan "let now () = Unix.gettimeofday ()\nlet ok = 1\n" in
  check_int "one finding" 1 (List.length flagged);
  let f = Rule.to_finding (List.hd flagged) in
  check_bool "hazard kind" true
    (f.Rule.Finding.kind = Rule.Finding.Determinism_hazard);
  check_bool "error severity" true
    (f.Rule.Finding.severity = Rule.Finding.Error);
  check_int "comment not flagged" 0
    (List.length
       (scan
          "(* Unix.gettimeofday would break replay *)\nlet s = \"Sys.time\"\n"));
  check_int "Sys.times is not Sys.time" 0
    (List.length (scan "let t = Sys.times ()\n"));
  check_int "XRandom is not Random" 0
    (List.length (scan "let r () = XRandom.self_init ()\n"));
  check_int "qualified use still flagged" 1
    (List.length (scan "let r () = Stdlib.Random.int 6\n"))

(* The tree walk skips dot-directories: under _build, dune writes the
   [.<lib>.objs] directories while the lint rule runs. A hazard planted in
   one is never scanned, though the same text is flagged in lib/ proper. *)
let test_walk_skips_dot_directories () =
  let root = Filename.temp_dir "lint_walk" "" in
  let hazard = "let now () = Unix.gettimeofday ()\n" in
  let write rel =
    let path = Filename.concat root rel in
    let rec mkdir_p d =
      if not (Sys.file_exists d) then begin
        mkdir_p (Filename.dirname d);
        Sys.mkdir d 0o755
      end
    in
    mkdir_p (Filename.dirname path);
    Out_channel.with_open_bin path (fun oc -> output_string oc hazard)
  in
  let files = [ "lib/a.ml"; "lib/.x.objs/b.ml" ] in
  List.iter write files;
  Fun.protect ~finally:(fun () ->
      List.iter (fun rel -> Sys.remove (Filename.concat root rel)) files;
      List.iter (fun rel -> Sys.rmdir (Filename.concat root rel))
        [ "lib/.x.objs"; "lib"; "" ])
  @@ fun () ->
  let units = Src.load_tree ~repo_root:root "lib" in
  Alcotest.(check (list string))
    "only lib/a.ml is walked" [ "lib/a.ml" ]
    (List.map (fun u -> u.Src.path) units);
  let findings = List.concat_map Ast_rules.scan units in
  check_bool "lib/a.ml is flagged" true (findings <> []);
  check_bool "every finding is in lib/a.ml" true
    (List.for_all (fun f -> f.Rule.source = "lib/a.ml") findings);
  check_bool "the skipped file would be flagged" true
    (Ast_rules.scan (Src.of_string ~path:"lib/.x.objs/b.ml" hazard) <> []);
  check_int "a lint scan of lib covers one file" 1
    (Driver.scan ~roots:[ "lib" ] ~repo_root:root ()).Driver.files

(* Domain readiness: under [~parallel_scope:true] (the lib/sim treatment)
   non-Atomic module-level mutable state escalates to a domain-unready
   error; Atomic state and per-call constructors stay clean, and without
   the flag the same file yields only the info-level inventory. *)
let test_domain_readiness () =
  let unit_ = fixture "alias_domain_unready.ml" in
  let escalated = Ast_rules.scan ~parallel_scope:true unit_ in
  check_int "two domain-unready errors" 2 (count "domain-unready" escalated);
  check_bool "names the ref" true
    (List.exists
       (fun f ->
         f.Rule.rule = "domain-unready" && f.Rule.symbol = "epoch_hint")
       escalated);
  check_bool "names the hashtbl" true
    (List.exists
       (fun f ->
         f.Rule.rule = "domain-unready" && f.Rule.symbol = "lane_cache")
       escalated);
  check_bool "Atomic state not flagged" false
    (List.exists (fun f -> f.Rule.symbol = "barrier_round") escalated);
  check_bool "constructor not flagged" false
    (List.exists (fun f -> f.Rule.symbol = "make_lane") escalated);
  check_bool "errors, not inventory notes" true
    (List.for_all
       (fun f ->
         f.Rule.rule <> "domain-unready"
         || f.Rule.severity = Repro_analyze.Finding.Error)
       escalated);
  let plain = Ast_rules.scan unit_ in
  check_int "no escalation without the flag" 0 (count "domain-unready" plain);
  check_int "inventory still present" 1 (count "toplevel-ref" plain)

let test_sim_exemption () =
  let wall = fixture "det_wall_clock.ml" in
  check_int "determinism skipped" 0
    (List.length (Ast_rules.scan ~exempt_determinism:true wall));
  let inventory = fixture "alias_inventory.ml" in
  check_int "aliasing kept" 3
    (List.length (Ast_rules.scan ~exempt_determinism:true inventory))

let test_suppression () =
  let findings = Ast_rules.scan (fixture "suppressed.ml") in
  check_int "only the unsuppressed finding" 1 (List.length findings);
  match findings with
  | [ f ] ->
    check_bool "it is the ambient-random one" true
      (f.Rule.rule = "ambient-random" && f.Rule.symbol = "still_flagged:Random.bits")
  | _ -> Alcotest.fail "expected exactly one finding"

(* --- baseline algebra --------------------------------------------------------- *)

let test_baseline_apply () =
  let f1 =
    Rule.make ~rule:"toplevel-ref" ~source:"lib/x.ml" ~line:3 ~symbol:"cache"
      ~message:"m" ~evidence:[]
  in
  let f2 =
    Rule.make ~rule:"hashtbl-order" ~source:"lib/y.ml" ~line:9 ~symbol:"f:Hashtbl.iter"
      ~message:"m" ~evidence:[]
  in
  let stale = { Baseline.rule = "obj-magic"; source = "lib/gone.ml"; symbol = "g" } in
  let baseline = Baseline.of_findings [ f1 ] @ [ stale ] in
  (* the key has no line number, so a moved finding stays suppressed *)
  let f1_moved =
    Rule.make ~rule:"toplevel-ref" ~source:"lib/x.ml" ~line:40 ~symbol:"cache"
      ~message:"m" ~evidence:[]
  in
  let applied = Baseline.apply baseline [ f1_moved; f2 ] in
  check_int "kept" 1 (List.length applied.Baseline.kept);
  check_bool "kept is f2" true (List.hd applied.Baseline.kept == f2);
  check_int "suppressed" 1 (List.length applied.Baseline.suppressed);
  check_int "stale" 1 (List.length applied.Baseline.stale);
  check_bool "stale entry survives" true
    (List.hd applied.Baseline.stale = stale)

let test_baseline_roundtrip () =
  let entries =
    [
      { Baseline.rule = "mutable-field"; source = "lib/a.ml"; symbol = "t.x" };
      { Baseline.rule = "toplevel-ref"; source = "lib/b.ml"; symbol = "r" };
    ]
  in
  match Baseline.of_json (Baseline.to_json entries) with
  | Ok entries' ->
    check_bool "roundtrip preserves entries"
      true
      (List.sort compare entries = List.sort compare entries')
  | Error e -> Alcotest.fail ("baseline roundtrip: " ^ e)

(* --- contract cross-checks ---------------------------------------------------- *)

let load_units root =
  List.concat_map
    (fun dir -> Src.load_tree ~repo_root:root dir)
    [ "lib"; "bin"; "test"; "bench" ]

let test_contracts_clean_on_real_tree () =
  let units = load_units (repo_root ()) in
  check_int "no contract findings" 0 (List.length (Contracts.check units))

(* Deleting a chaos hook's conviction test must fail the cross-check: rename
   every test/ reference to pc_causal's chaos_disable_forwarding and the
   hook becomes dead armour. *)
let test_chaos_deletion_convicted () =
  let units = load_units (repo_root ()) in
  let hook = "chaos_disable_forwarding" in
  let mutated =
    List.map
      (fun u ->
        if
          String.length u.Src.path >= 5
          && String.sub u.Src.path 0 5 = "test/"
        then
          Src.of_string ~path:u.Src.path
            (replace_all ~needle:hook ~by:(hook ^ "_gone") u.Src.text)
        else u)
      units
  in
  let findings = Contracts.check mutated in
  check_int "exactly one conviction" 1 (List.length findings);
  match findings with
  | [ f ] ->
    check_bool "it names the hook" true
      (f.Rule.rule = "chaos-conviction" && f.Rule.symbol = hook)
  | _ -> Alcotest.fail "expected exactly one contract finding"

(* Dropping the bench family entirely must convict every dispatch variant. *)
let test_dispatch_deletion_convicted () =
  let units =
    List.filter
      (fun u ->
        not
          (String.length u.Src.path >= 6
          && String.sub u.Src.path 0 6 = "bench/"))
      (load_units (repo_root ()))
  in
  let findings = Contracts.check units in
  check_bool "at least one finding" true (findings <> []);
  check_bool "all are bench dispatch-coverage" true
    (List.for_all
       (fun f ->
         f.Rule.rule = "dispatch-coverage"
         && Filename.check_suffix f.Rule.symbol "->bench")
       findings);
  check_bool "sparse clock named" true
    (List.exists
       (fun f -> f.Rule.symbol = "stability_clock.Sparse_clock->bench")
       findings)

(* --- the real tree, modulo the committed baseline ------------------------------ *)

let test_real_tree_clean_modulo_baseline () =
  let root = repo_root () in
  let baseline =
    match Baseline.load (Filename.concat root "LINT_baseline.json") with
    | Ok b -> b
    | Error e -> Alcotest.fail ("baseline load: " ^ e)
  in
  let result = Driver.scan ~baseline ~repo_root:root () in
  check_bool "scanned some files" true (result.Driver.files > 0);
  List.iter
    (fun f ->
      Printf.printf "unexpected finding: %s %s %s\n" f.Rule.rule f.Rule.source
        f.Rule.symbol)
    result.Driver.kept;
  check_int "no unsuppressed findings" 0 (List.length result.Driver.kept);
  check_int "no stale baseline entries" 0 (List.length result.Driver.stale)

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "fixture convictions" `Quick
            test_fixture_convictions;
          Alcotest.test_case "parse error" `Quick test_parse_error;
          Alcotest.test_case "domain readiness" `Quick test_domain_readiness;
          Alcotest.test_case "sim exemption" `Quick test_sim_exemption;
          Alcotest.test_case "suppression attributes" `Quick test_suppression;
        ] );
      ( "lint",
        [
          Alcotest.test_case "strip comments and strings" `Quick
            test_strip_comments_and_strings;
          Alcotest.test_case "scan flags hazards" `Quick
            test_scan_flags_hazards;
          Alcotest.test_case "walk skips dot-directories" `Quick
            test_walk_skips_dot_directories;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "apply" `Quick test_baseline_apply;
          Alcotest.test_case "roundtrip" `Quick test_baseline_roundtrip;
        ] );
      ( "contracts",
        [
          Alcotest.test_case "clean on real tree" `Quick
            test_contracts_clean_on_real_tree;
          Alcotest.test_case "chaos deletion convicted" `Quick
            test_chaos_deletion_convicted;
          Alcotest.test_case "dispatch deletion convicted" `Quick
            test_dispatch_deletion_convicted;
        ] );
      ( "tree",
        [
          Alcotest.test_case "clean modulo baseline" `Quick
            test_real_tree_clean_modulo_baseline;
        ] );
    ]
