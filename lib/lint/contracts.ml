open Parsetree

let config_path = "lib/catocs/config.ml"

let dispatch_types = [ "causal_impl"; "stability_clock" ]

type fam = { fam_name : string; fam_member : string -> bool }

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let families =
  [
    {
      fam_name = "check-runner";
      fam_member =
        (fun p ->
          has_prefix "lib/check/" p || p = "bin/check_cli.ml"
          || p = "test/test_check.ml");
    };
    {
      fam_name = "scaling";
      fam_member =
        (fun p -> has_prefix "lib/experiments/" p || p = "test/test_experiments.ml");
    };
    { fam_name = "bench"; fam_member = (fun p -> has_prefix "bench/" p) };
  ]

let flatten lid =
  match Longident.flatten lid with path -> path | exception _ -> []

let suffix_is tail path =
  let lt = List.length tail and lp = List.length path in
  lp >= lt && List.filteri (fun i _ -> i >= lp - lt) path = tail

(* --- per-unit collectors ---------------------------------------------------- *)

(* Every constructor path used in expressions or patterns. *)
let construct_paths (u : Src.t) =
  match u.Src.structure with
  | None -> []
  | Some str ->
    let acc = ref [] in
    let it =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun self x ->
            (match x.pexp_desc with
             | Pexp_construct ({ txt; _ }, _) -> acc := flatten txt :: !acc
             | _ -> ());
            Ast_iterator.default_iterator.expr self x);
        pat =
          (fun self x ->
            (match x.ppat_desc with
             | Ppat_construct ({ txt; _ }, _) -> acc := flatten txt :: !acc
             | _ -> ());
            Ast_iterator.default_iterator.pat self x);
      }
    in
    it.structure it str;
    !acc

(* Every identifier's last path segment (chaos hooks are referenced either
   bare or module-qualified). *)
let ident_leaves (u : Src.t) =
  match u.Src.structure with
  | None -> []
  | Some str ->
    let acc = ref [] in
    let leaf path = match List.rev path with x :: _ -> x | [] -> "" in
    let it =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun self x ->
            (match x.pexp_desc with
             | Pexp_ident { txt; _ } -> acc := leaf (flatten txt) :: !acc
             | _ -> ());
            Ast_iterator.default_iterator.expr self x);
      }
    in
    it.structure it str;
    !acc

(* Top-level [let chaos_* = ref ...] bindings, recursing into submodules.
   Requiring a ref cell keeps ordinary functions that merely start with
   "chaos_" out of the hook inventory. *)
let chaos_hooks (u : Src.t) =
  match u.Src.structure with
  | None -> []
  | Some str ->
    let acc = ref [] in
    let is_ref_cell e =
      match e.pexp_desc with
      | Pexp_apply (f, [ _ ]) ->
        (match f.pexp_desc with
         | Pexp_ident { txt; _ } ->
           (match flatten txt with
            | [ "ref" ] | [ "Stdlib"; "ref" ] -> true
            | _ -> false)
         | _ -> false)
      | _ -> false
    in
    let rec go_items items = List.iter go_item items
    and go_item item =
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            match vb.pvb_pat.ppat_desc with
            | Ppat_var { txt; _ }
              when has_prefix "chaos_" txt && is_ref_cell vb.pvb_expr ->
              acc :=
                (txt, vb.pvb_pat.ppat_loc.Location.loc_start.Lexing.pos_lnum)
                :: !acc
            | _ -> ())
          vbs
      | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure items; _ }; _ } ->
        go_items items
      | _ -> ()
    in
    go_items str;
    List.rev !acc

(* [Registry.counter/gauge/histogram ... ~name:"literal" ...] registration
   sites — the metric inventory the coverage check audits. Sites whose
   [~name] is computed (not a literal) are skipped: they are wrappers, and
   the literal flows in from a caller that is itself collected. *)
let metric_registrations (u : Src.t) =
  match u.Src.structure with
  | None -> []
  | Some str ->
    let acc = ref [] in
    let is_registration f =
      match f.pexp_desc with
      | Pexp_ident { txt; _ } ->
        (match List.rev (flatten txt) with
         | ("counter" | "gauge" | "histogram") :: "Registry" :: _ -> true
         | _ -> false)
      | _ -> false
    in
    let it =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun self x ->
            (match x.pexp_desc with
             | Pexp_apply (f, args) when is_registration f ->
               List.iter
                 (fun (label, (arg : expression)) ->
                   match (label, arg.pexp_desc) with
                   | ( Asttypes.Labelled "name",
                       Pexp_constant (Pconst_string (s, _, _)) ) ->
                     acc :=
                       (s, arg.pexp_loc.Location.loc_start.Lexing.pos_lnum)
                       :: !acc
                   | _ -> ())
                 args
             | _ -> ());
            Ast_iterator.default_iterator.expr self x);
      }
    in
    it.structure it str;
    List.rev !acc

(* Every string literal in a unit (metric names are referenced by tests as
   plain strings, e.g. in counter_total lookups or golden exports). *)
let string_literals (u : Src.t) =
  match u.Src.structure with
  | None -> []
  | Some str ->
    let acc = ref [] in
    let it =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun self x ->
            (match x.pexp_desc with
             | Pexp_constant (Pconst_string (s, _, _)) -> acc := s :: !acc
             | _ -> ());
            Ast_iterator.default_iterator.expr self x);
      }
    in
    it.structure it str;
    !acc

(* The constructors of the dispatch types declared in Config. *)
let dispatch_variants (config : Src.t) =
  match config.Src.structure with
  | None -> []
  | Some str ->
    List.concat_map
      (fun item ->
        match item.pstr_desc with
        | Pstr_type (_, decls) ->
          List.concat_map
            (fun decl ->
              let tname = decl.ptype_name.Asttypes.txt in
              if not (List.mem tname dispatch_types) then []
              else
                match decl.ptype_kind with
                | Ptype_variant ctors ->
                  List.map
                    (fun c -> (tname, c.pcd_name.Asttypes.txt))
                    ctors
                | _ -> [])
            decls
        | _ -> [])
      str

(* --- the cross-checks -------------------------------------------------------- *)

let check units =
  let findings = ref [] in
  (* 1. every chaos_* hook defined under lib/ has a test/ reference *)
  let hooks =
    List.concat_map
      (fun u ->
        if has_prefix "lib/" u.Src.path then
          List.map (fun (n, l) -> (u.Src.path, n, l)) (chaos_hooks u)
        else [])
      units
  in
  let test_leaves =
    List.concat_map
      (fun u -> if has_prefix "test/" u.Src.path then ident_leaves u else [])
      units
  in
  List.iter
    (fun (path, hook, line) ->
      if not (List.mem hook test_leaves) then
        findings :=
          Rule.make ~rule:"chaos-conviction" ~source:path ~line ~symbol:hook
            ~message:
              (Printf.sprintf
                 "mutation hook %s has no reference under test/ — the fault \
                  it injects is never convicted"
                 hook)
            ~evidence:[]
          :: !findings)
    hooks;
  (* 2. every metric registered under lib/ is named by test/ (the hot-path
     instrumentation contract: a silently dropped or renamed metric must
     fail the lint, not just thin out the exported snapshots) *)
  let registrations =
    List.concat_map
      (fun u ->
        if has_prefix "lib/" u.Src.path then
          List.map (fun (n, l) -> (u.Src.path, n, l)) (metric_registrations u)
        else [])
      units
  in
  let test_strings =
    List.concat_map
      (fun u ->
        if has_prefix "test/" u.Src.path then string_literals u else [])
      units
  in
  List.iter
    (fun (path, name, line) ->
      if not (List.mem name test_strings) then
        findings :=
          Rule.make ~rule:"metric-coverage" ~source:path ~line ~symbol:name
            ~message:
              (Printf.sprintf
                 "metric %S is registered here but never named under test/ \
                  — its spelling and presence are unpinned"
                 name)
            ~evidence:[]
          :: !findings)
    registrations;
  (* 3. every Config dispatch variant appears in each family *)
  (match List.find_opt (fun u -> u.Src.path = config_path) units with
   | None -> ()
   | Some config ->
     let variants = dispatch_variants config in
     let family_paths =
       List.map
         (fun fam ->
           let paths =
             List.concat_map
               (fun u ->
                 if fam.fam_member u.Src.path then construct_paths u else [])
               units
           in
           (fam, paths))
         families
     in
     List.iter
       (fun (tname, ctor) ->
         List.iter
           (fun (fam, paths) ->
             let present = List.exists (suffix_is [ ctor ]) paths in
             if not present then
               findings :=
                 Rule.make ~rule:"dispatch-coverage" ~source:config_path
                   ~line:0
                   ~symbol:(tname ^ "." ^ ctor ^ "->" ^ fam.fam_name)
                   ~message:
                     (Printf.sprintf
                        "Config.%s variant %s never appears in the %s family"
                        tname ctor fam.fam_name)
                   ~evidence:[]
               :: !findings)
           family_paths)
       variants);
  List.sort Rule.compare !findings
