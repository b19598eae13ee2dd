type txid = int

type 'v t = {
  committed_store : 'v Kv_store.t;
  last_write : (string, int) Hashtbl.t;  (* key -> commit stamp *)
  mutable clock : int;
  mutable next_txid : txid;
  mutable commit_count : int;
  mutable abort_count : int;
}

type 'v tx = {
  id : txid;
  start_stamp : int;
  mutable reads : string list;
  mutable writes : (string * 'v) list;  (* newest first *)
}

let create () =
  { committed_store = Kv_store.create (); last_write = Hashtbl.create 32;
    clock = 0; next_txid = 0; commit_count = 0; abort_count = 0 }

let begin_tx t =
  let id = t.next_txid in
  t.next_txid <- id + 1;
  { id; start_stamp = t.clock; reads = []; writes = [] }

let read t tx ~key =
  if not (List.mem key tx.reads) then tx.reads <- key :: tx.reads;
  match List.assoc_opt key tx.writes with
  | Some v -> Some v
  | None -> Kv_store.get t.committed_store ~key

let write tx ~key value = tx.writes <- (key, value) :: tx.writes

let commit t tx =
  let accessed =
    List.sort_uniq String.compare (tx.reads @ List.map fst tx.writes)
  in
  let conflicts =
    List.filter
      (fun key ->
        match Hashtbl.find_opt t.last_write key with
        | Some stamp -> stamp > tx.start_stamp
        | None -> false)
      accessed
  in
  match conflicts with
  | _ :: _ ->
    t.abort_count <- t.abort_count + 1;
    Error conflicts
  | [] ->
    t.clock <- t.clock + 1;
    (* apply in write order (oldest first); later writes win per key *)
    List.iter
      (fun (key, v) ->
        ignore (Kv_store.put t.committed_store ~key v);
        Hashtbl.replace t.last_write key t.clock)
      (List.rev tx.writes);
    t.commit_count <- t.commit_count + 1;
    Ok t.clock

let store t = t.committed_store
let commits t = t.commit_count
let aborts t = t.abort_count
