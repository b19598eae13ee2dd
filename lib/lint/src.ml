type t = {
  path : string;
  text : string;
  lines : string array;
  structure : Parsetree.structure option;
  parse_error : string option;
}

let normalize path =
  String.concat "/" (String.split_on_char '\\' path)

let parse ~path text =
  if not (Filename.check_suffix path ".ml") then (None, None)
  else
    let lexbuf = Lexing.from_string text in
    Lexing.set_filename lexbuf path;
    match Parse.implementation lexbuf with
    | structure -> (Some structure, None)
    | exception exn ->
      let msg =
        match exn with
        | Syntaxerr.Error _ ->
          Printf.sprintf "syntax error near line %d"
            lexbuf.Lexing.lex_curr_p.Lexing.pos_lnum
        | _ -> Printexc.to_string exn
      in
      (None, Some msg)

let of_string ~path text =
  let path = normalize path in
  let structure, parse_error = parse ~path text in
  {
    path;
    text;
    lines = Array.of_list (String.split_on_char '\n' text);
    structure;
    parse_error;
  }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load ~repo_root rel =
  of_string ~path:rel (read_file (Filename.concat repo_root rel))

let line t n =
  if n >= 1 && n <= Array.length t.lines then String.trim t.lines.(n - 1)
  else ""

(* Deterministic recursive walk collecting .ml files under [rel] (a
   repo-root-relative directory), mirroring the reference scanner's
   ordering so findings and baselines are stable across filesystems.
   Dot-directories are skipped: under _build, dune writes its
   [.<lib>.objs] directories while the lint runs in the same build, so an
   entry listed by [readdir] may be gone before it is stat'ed — such an
   entry is treated as absent. *)
let walk ~repo_root rel =
  let files = ref [] in
  let rec go rel_dir =
    let abs = Filename.concat repo_root rel_dir in
    match Sys.readdir abs with
    | exception Sys_error _ -> ()
    | names ->
      Array.sort String.compare names;
      Array.iter
        (fun name ->
          let rel_path = Filename.concat rel_dir name in
          match Sys.is_directory (Filename.concat abs name) with
          | exception Sys_error _ -> ()
          | true -> if name.[0] <> '.' then go rel_path
          | false ->
            if Filename.check_suffix name ".ml" then
              files := rel_path :: !files)
        names
  in
  go rel;
  List.sort String.compare !files

let load_tree ~repo_root rel =
  List.map (fun p -> load ~repo_root p) (walk ~repo_root rel)
