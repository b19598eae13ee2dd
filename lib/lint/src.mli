(** A source unit for the AST lint: one [.ml] file, its text, and its
    parsetree (parsed with the compiler's own [Parse.implementation], so the
    analyzer can never disagree with the build about what the code says). *)

type t = {
  path : string;  (** repo-root-relative, forward slashes *)
  text : string;
  lines : string array;
  structure : Parsetree.structure option;
      (** [None] for non-[.ml] files and parse failures *)
  parse_error : string option;
}

val of_string : path:string -> string -> t
(** Parse in-memory source (used by the tests to synthesize units). *)

val load : repo_root:string -> string -> t
(** Load and parse [repo_root/rel]; the unit's [path] is [rel]. *)

val line : t -> int -> string
(** The trimmed 1-based source line, or [""] out of range. *)

val load_tree : repo_root:string -> string -> t list
(** Every [.ml] file under [repo_root/rel], loaded in path order.
    Dot-directories (dune's [.<lib>.objs]) are not entered, and an entry
    that vanishes during the walk is skipped. *)
