type member = {
  delivered : int list;
  positions : (int, int) Hashtbl.t;  (* uid -> first-delivery position *)
  duplicates : (int * int) list;
}

let index delivered =
  let positions = Hashtbl.create 64 in
  let repeats_rev = ref [] in
  List.iteri
    (fun i uid ->
      if Hashtbl.mem positions uid then repeats_rev := uid :: !repeats_rev
      else Hashtbl.add positions uid i)
    delivered;
  (* empty on a correct run, so the quadratic count costs nothing there *)
  let rec count = function
    | [] -> []
    | uid :: rest ->
      let same, others = List.partition (Int.equal uid) rest in
      (uid, 2 + List.length same) :: count others
  in
  { delivered; positions; duplicates = count (List.rev !repeats_rev) }

let position m uid = Hashtbl.find_opt m.positions uid
let duplicates m = m.duplicates

type inversion = { uid : int; pos : int; pred : int; pred_pos : int option }

let causal_order m ~joined_at ~context ~sent_at =
  (* For a uid the member never delivered: the latest-delivered message in
     its causal past, reached through never-delivered messages only, as
     [(position, uid)]. Memoised per member; a uid is marked before its
     context is read, so cyclic input (which no producer records) ends. *)
  let latest = Hashtbl.create 16 in
  let rec latest_past uid =
    match Hashtbl.find_opt latest uid with
    | Some found -> found
    | None ->
      Hashtbl.add latest uid None;
      let found =
        List.fold_left
          (fun best c ->
            let cand =
              match Hashtbl.find_opt m.positions c with
              | Some j -> Some (j, c)
              | None -> latest_past c
            in
            match (best, cand) with
            | Some (b, _), Some (j, _) when j <= b -> best
            | _, None -> best
            | _, Some _ -> cand)
          None (context uid)
      in
      Hashtbl.replace latest uid found;
      found
  in
  (* the inversions of [uid] are at the head of [acc] *)
  let rec reported uid pred = function
    | v :: rest when Int.equal v.uid uid ->
      Int.equal v.pred pred || reported uid pred rest
    | _ -> false
  in
  let convict uid pos pred pred_pos acc =
    if reported uid pred acc then acc else { uid; pos; pred; pred_pos } :: acc
  in
  let judge uid pos acc pred =
    match Hashtbl.find_opt m.positions pred with
    | Some j when j < pos -> acc
    | Some _ as pred_pos -> convict uid pos pred pred_pos acc
    | None -> (
      match joined_at with
      | Some joined when Sim_time.compare joined (sent_at pred) < 0 ->
        convict uid pos pred None acc
      | Some _ -> acc
      | None -> (
        match latest_past pred with
        | Some (j, p) when j > pos -> convict uid pos p (Some j) acc
        | Some _ | None -> acc))
  in
  let rec scan pos acc = function
    | [] -> List.rev acc
    | uid :: rest ->
      let acc =
        if Int.equal (Hashtbl.find m.positions uid) pos then
          List.fold_left (judge uid pos) acc (context uid)
        else acc (* a repeat delivery *)
      in
      scan (pos + 1) acc rest
  in
  scan 0 [] m.delivered

type exec_view = {
  members : (int * member) list;
  send : int -> Exec.send option;
  context : int -> int list;
  sent_at : int -> Sim_time.t;
}

let of_exec (e : Exec.t) =
  let sends = Hashtbl.create 64 in
  List.iter (fun (s : Exec.send) -> Hashtbl.replace sends s.uid s) e.sends;
  (* one pass: each process's delivered uids, newest first, and the
     processes in order of their first delivery *)
  let logs = Hashtbl.create 8 in
  let pids_rev = ref [] in
  List.iter
    (fun (d : Exec.delivery) ->
      match Hashtbl.find_opt logs d.d_pid with
      | Some log -> log := d.d_uid :: !log
      | None ->
        Hashtbl.add logs d.d_pid (ref [ d.d_uid ]);
        pids_rev := d.d_pid :: !pids_rev)
    e.deliveries;
  let members =
    List.rev_map
      (fun pid -> (pid, index (List.rev !(Hashtbl.find logs pid))))
      !pids_rev
  in
  let send = Hashtbl.find_opt sends in
  let context uid =
    match send uid with Some (s : Exec.send) -> s.context | None -> []
  in
  let sent_at uid = (Hashtbl.find sends uid : Exec.send).sent_at in
  { members; send; context; sent_at }
