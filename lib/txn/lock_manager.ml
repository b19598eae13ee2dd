type txid = int
type mode = Shared | Exclusive

type outcome = Granted | Waiting | Deadlock of txid list

type lock_state = {
  mutable holders : (txid * mode) list;
  mutable queue : (txid * mode) list;  (* FIFO: head is next candidate *)
}

type t = { locks : (string, lock_state) Hashtbl.t }

let create () = { locks = Hashtbl.create 32 }

let lock_state t key =
  match Hashtbl.find_opt t.locks key with
  | Some s -> s
  | None ->
    let s = { holders = []; queue = [] } in
    Hashtbl.add t.locks key s;
    s

let compatible holders txid mode =
  match mode with
  | Shared ->
    List.for_all (fun (h, m) -> h = txid || m = Shared) holders
  | Exclusive ->
    List.for_all (fun (h, _) -> h = txid) holders

let holds t txid ~key =
  match Hashtbl.find_opt t.locks key with
  | None -> None
  | Some s ->
    List.fold_left
      (fun acc (h, m) ->
        if h <> txid then acc
        else
          match (acc, m) with
          | (Some Exclusive, _) | (_, Exclusive) -> Some Exclusive
          | _ -> Some Shared)
      None s.holders

let wait_for t =
  let g = Wait_for_graph.create () in
  let add_key_edges _ s =
    (* every queued transaction waits for every incompatible holder and for
       earlier queued incompatible requests *)
    let add_waiter idx (waiter, wmode) =
      List.iter
        (fun (holder, hmode) ->
          if holder <> waiter && (wmode = Exclusive || hmode = Exclusive) then
            Wait_for_graph.add_edge g ~waiter ~holder)
        s.holders;
      List.iteri
        (fun j (earlier, emode) ->
          if j < idx && earlier <> waiter
             && (wmode = Exclusive || emode = Exclusive)
          then Wait_for_graph.add_edge g ~waiter ~holder:earlier)
        s.queue
    in
    List.iteri add_waiter s.queue
  in
  Hashtbl.iter add_key_edges t.locks;
  g

let would_deadlock t txid ~key mode =
  let g = wait_for t in
  let s = lock_state t key in
  List.iter
    (fun (holder, hmode) ->
      if holder <> txid && (mode = Exclusive || hmode = Exclusive) then
        Wait_for_graph.add_edge g ~waiter:txid ~holder)
    s.holders;
  List.iter
    (fun (earlier, emode) ->
      if earlier <> txid && (mode = Exclusive || emode = Exclusive) then
        Wait_for_graph.add_edge g ~waiter:txid ~holder:earlier)
    s.queue;
  Wait_for_graph.find_cycle g

let acquire t txid ~key mode =
  let s = lock_state t key in
  let current = holds t txid ~key in
  match (current, mode) with
  | Some Exclusive, _ | Some Shared, Shared -> Granted
  | Some Shared, Exclusive
    when List.for_all (fun (h, _) -> h = txid) s.holders ->
    (* sole holder: upgrade in place *)
    s.holders <-
      (txid, Exclusive) :: List.filter (fun (h, _) -> h <> txid) s.holders;
    Granted
  | (Some Shared | None), _ ->
    if s.queue = [] && compatible s.holders txid mode then begin
      s.holders <- s.holders @ [ (txid, mode) ];
      Granted
    end
    else begin
      match would_deadlock t txid ~key mode with
      | Some cycle -> Deadlock cycle
      | None ->
        s.queue <- s.queue @ [ (txid, mode) ];
        Waiting
    end

let waiting t txid =
  Hashtbl.fold
    (fun _ s acc -> acc || List.exists (fun (w, _) -> w = txid) s.queue)
    t.locks false

let grant_from_queue s granted =
  let rec loop () =
    match s.queue with
    | [] -> ()
    | (txid, mode) :: rest ->
      if compatible s.holders txid mode then begin
        s.holders <- s.holders @ [ (txid, mode) ];
        s.queue <- rest;
        granted := txid :: !granted;
        loop ()
      end
  in
  loop ()

let release_all t txid =
  let granted = ref [] in
  Hashtbl.iter
    (fun _ s ->
      let had = List.exists (fun (h, _) -> h = txid) s.holders in
      s.holders <- List.filter (fun (h, _) -> h <> txid) s.holders;
      s.queue <- List.filter (fun (w, _) -> w <> txid) s.queue;
      if had || s.queue <> [] then grant_from_queue s granted)
    t.locks;
  List.rev !granted
