type kind = Send | Recv | Deliver | Mark

type entry = {
  time : Sim_time.t;
  pid : int;
  kind : kind;
  label : string;
}

(* Entries live in a growable array in chronological order: recording
   appends without allocating a list cell, and {!render_diagram} walks it
   in place. *)
type t = {
  mutable store : entry array;
  mutable len : int;
}

let dummy = { time = Sim_time.zero; pid = -1; kind = Mark; label = "" }

let create () = { store = [||]; len = 0 }

let record t time ~pid kind label =
  let capacity = Array.length t.store in
  if t.len = capacity then begin
    let capacity' = if capacity = 0 then 64 else capacity * 2 in
    let store' = Array.make capacity' dummy in
    Array.blit t.store 0 store' 0 t.len;
    t.store <- store'
  end;
  t.store.(t.len) <- { time; pid; kind; label };
  t.len <- t.len + 1

let kind_name = function
  | Send -> "send"
  | Recv -> "recv"
  | Deliver -> "dlvr"
  | Mark -> "mark"

let truncate_to width s =
  if String.length s <= width then s else String.sub s 0 width

let contains ~needle haystack =
  let n = String.length haystack and m = String.length needle in
  let rec scan i = i + m <= n && (String.sub haystack i m = needle || scan (i + 1)) in
  scan 0

let column_width = 24

let render_diagram ?(exclude_substrings = []) ?(limit = max_int) t ~names =
  let columns = Array.length names in
  let buffer = Buffer.create 1024 in
  let pad s width =
    let s = truncate_to width s in
    s ^ String.make (width - String.length s) ' '
  in
  Buffer.add_string buffer (pad "time" 10);
  Array.iter (fun n -> Buffer.add_string buffer ("| " ^ pad n column_width)) names;
  Buffer.add_char buffer '\n';
  Buffer.add_string buffer (String.make (10 + (columns * (column_width + 2))) '-');
  Buffer.add_char buffer '\n';
  let emitted = ref 0 in
  for i = 0 to t.len - 1 do
    let e = t.store.(i) in
    let excluded =
      List.exists (fun needle -> contains ~needle e.label) exclude_substrings
    in
    if e.pid >= 0 && e.pid < columns && (not excluded) && !emitted < limit
    then begin
      incr emitted;
      let time_str = Format.asprintf "%a" Sim_time.pp e.time in
      Buffer.add_string buffer (pad time_str 10);
      for col = 0 to columns - 1 do
        let cell =
          if col = e.pid then kind_name e.kind ^ " " ^ e.label else ""
        in
        Buffer.add_string buffer ("| " ^ pad cell column_width)
      done;
      Buffer.add_char buffer '\n'
    end
  done;
  Buffer.contents buffer
