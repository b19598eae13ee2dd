type op =
  | Write of { key : string; value : int }
  | Read of { key : string; result : int option }

type event = {
  client : int;
  op : op;
  invoked_at : Sim_time.t;
  completed_at : Sim_time.t;
}

type t = { mutable log : event list }

let create () = { log = [] }

let record t ~client ~op ~invoked_at ~completed_at =
  if Sim_time.compare completed_at invoked_at < 0 then
    invalid_arg "History.record: completion precedes invocation";
  t.log <- { client; op; invoked_at; completed_at } :: t.log

let length t = List.length t.log

let key_of event =
  match event.op with Write { key; _ } -> key | Read { key; _ } -> key

(* Backtracking search for a legal sequential witness of one key's events.
   A candidate next operation must be "minimal": no unchosen operation
   completed before the candidate was invoked. Applying it must respect
   register semantics given the current value. *)
let key_linearizable events =
  let arr = Array.of_list events in
  let n = Array.length arr in
  let used = Array.make n false in
  let minimal i =
    let ok = ref true in
    for j = 0 to n - 1 do
      if (not used.(j)) && j <> i
         && Sim_time.compare arr.(j).completed_at arr.(i).invoked_at < 0
      then ok := false
    done;
    !ok
  in
  let rec search chosen current =
    if chosen = n then true
    else begin
      let rec try_candidates i =
        if i >= n then false
        else if used.(i) || not (minimal i) then try_candidates (i + 1)
        else begin
          let applies, next =
            match arr.(i).op with
            | Write { value; _ } -> (true, Some value)
            | Read { result; _ } -> (result = current, current)
          in
          if applies then begin
            used.(i) <- true;
            if search (chosen + 1) next then true
            else begin
              used.(i) <- false;
              try_candidates (i + 1)
            end
          end
          else try_candidates (i + 1)
        end
      in
      try_candidates 0
    end
  in
  search 0 None

let by_key t =
  let table : (string, event list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let key = key_of e in
      let existing = Option.value ~default:[] (Hashtbl.find_opt table key) in
      Hashtbl.replace table key (e :: existing))
    t.log;
  (* t.log is newest-first, so the accumulated lists are oldest-first *)
  Hashtbl.fold (fun key events acc -> (key, events) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let linearizable t =
  List.for_all (fun (_, events) -> key_linearizable events) (by_key t)

let first_violation t =
  List.find_map
    (fun (key, events) ->
      if key_linearizable events then None
      else
        Some
          (Printf.sprintf "key %S: no legal linearisation of %d operations" key
             (List.length events)))
    (by_key t)
