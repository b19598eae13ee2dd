module Config = Repro_catocs.Config
module History = Repro_txn.History

type send_info = {
  uid : int;
  sender : Engine.pid;
  sender_seq : int;
  sent_at : Sim_time.t;
  depth : int;
  partial : bool;
  context : int list;
}

type mem_event =
  | Install of { view_id : int; members : Engine.pid list }
  | Deliver of { uid : int; at : Sim_time.t }

type member_log = {
  pid : Engine.pid;
  name : string;
  shard : int;  (* registration index; the uid namespace in sharded mode *)
  mutable events_rev : mem_event list;
  mutable delivered_rev : int list;
  mutable sent_rev : int list;
  mutable first_install_at : Sim_time.t option;
  mutable own_next_seq : int;  (* sharded mode: per-member send counter *)
  mutable own_sends_rev : send_info list;  (* sharded mode: own sends *)
  mutable own_deliveries : int;
}

type t = {
  sends : (int, send_info) Hashtbl.t;
  members : (Engine.pid, member_log) Hashtbl.t;
  mutable member_order_rev : Engine.pid list;
  mutable next_uid : int;
  next_seq : (Engine.pid, int) Hashtbl.t;
  mutable delivery_count : int;
  sharded : bool;
      (* parallel-engine mode: every during-run mutation is confined to the
         acting member's own log — uids are allocated per-sender (seq and
         depth packed into the integer), send records accumulate in
         [own_sends_rev], and the shared [sends] index is only built by
         {!seal} after the run. Members themselves are registered from
         single-threaded contexts (setup, control lane), so the [members]
         table is never resized while workers read it. *)
  mutable sealed : bool;
}

(* sharded uid layout: (seq * shard_limit + shard) * 4 + min depth 3 —
   globally unique, allocation-order independent, and self-describing
   enough for the during-run reads ({!send_depth}) to avoid the shared
   index *)
let shard_limit = 1 lsl 16

type violation = {
  oracle : string;
  member : string;
  detail : string;
  uids : int list;
}

let create ?(sharded = false) () =
  { sends = Hashtbl.create 256; members = Hashtbl.create 16;
    member_order_rev = []; next_uid = 0; next_seq = Hashtbl.create 16;
    delivery_count = 0; sharded; sealed = false }

let log_of t pid =
  match Hashtbl.find_opt t.members pid with
  | Some log -> log
  | None -> invalid_arg "Oracle: unregistered member"

let register_member t ~pid ~name ~view =
  let shard = List.length t.member_order_rev in
  if t.sharded && shard >= shard_limit then
    invalid_arg "Oracle: too many members for sharded uids";
  let log =
    { pid; name; shard; events_rev = []; delivered_rev = []; sent_rev = [];
      first_install_at = None; own_next_seq = 0; own_sends_rev = [];
      own_deliveries = 0 }
  in
  (match view with
   | Some (view_id, members) ->
     log.events_rev <- [ Install { view_id; members } ];
     log.first_install_at <- Some Sim_time.zero
   | None -> ());
  Hashtbl.replace t.members pid log;
  t.member_order_rev <- pid :: t.member_order_rev

let member_pids t = List.rev t.member_order_rev
let name_of t pid = (log_of t pid).name

let fold_logs t f init =
  List.fold_left (fun acc pid -> f acc (log_of t pid)) init (member_pids t)

let send_count t =
  if t.sharded then fold_logs t (fun acc log -> acc + log.own_next_seq) 0
  else t.next_uid

let delivery_count t =
  if t.sharded then fold_logs t (fun acc log -> acc + log.own_deliveries) 0
  else t.delivery_count

let has_install t pid = (log_of t pid).first_install_at <> None

let note_send t ~sender ~at ~depth ~partial =
  let log = log_of t sender in
  let uid, seq =
    if t.sharded then begin
      let seq = log.own_next_seq in
      log.own_next_seq <- seq + 1;
      ((((seq * shard_limit) + log.shard) * 4) + min depth 3, seq)
    end
    else begin
      let uid = t.next_uid in
      t.next_uid <- uid + 1;
      let seq = Option.value ~default:0 (Hashtbl.find_opt t.next_seq sender) in
      Hashtbl.replace t.next_seq sender (seq + 1);
      (uid, seq)
    end
  in
  let context =
    List.sort_uniq Int.compare (List.rev_append log.delivered_rev log.sent_rev)
  in
  log.sent_rev <- uid :: log.sent_rev;
  let s = { uid; sender; sender_seq = seq; sent_at = at; depth; partial; context } in
  if t.sharded then log.own_sends_rev <- s :: log.own_sends_rev
  else Hashtbl.replace t.sends uid s;
  uid

(* Build the shared uid index from the per-member journals, once the run is
   over. Idempotent; a no-op outside sharded mode (where [sends] is
   populated inline). *)
let seal t =
  if t.sharded && not t.sealed then begin
    t.sealed <- true;
    List.iter
      (fun pid ->
        List.iter
          (fun s -> Hashtbl.replace t.sends s.uid s)
          (List.rev (log_of t pid).own_sends_rev))
      (member_pids t)
  end

let send_depth t uid =
  if t.sharded then uid land 3
  else
    match Hashtbl.find_opt t.sends uid with Some s -> s.depth | None -> 0

let info t uid =
  match Hashtbl.find_opt t.sends uid with
  | Some s -> s
  | None -> invalid_arg "Oracle: delivery of an unknown uid"

let note_delivery t ~pid ~uid ~at =
  let log = log_of t pid in
  log.events_rev <- Deliver { uid; at } :: log.events_rev;
  log.delivered_rev <- uid :: log.delivered_rev;
  log.own_deliveries <- log.own_deliveries + 1;
  if not t.sharded then t.delivery_count <- t.delivery_count + 1

let note_install t ~pid ~view_id ~members ~at =
  let log = log_of t pid in
  log.events_rev <- Install { view_id; members } :: log.events_rev;
  if log.first_install_at = None then log.first_install_at <- Some at

(* --- derived structures --------------------------------------------------- *)

let deliveries log = List.rev log.delivered_rev

(* (view_id, members, delivered uids in order) per installed view, oldest
   first; deliveries before the first install (impossible in practice) are
   discarded. One fold over the newest-first journal: deliveries collect
   until the install that opened their view. *)
let segments log =
  snd
    (List.fold_left
       (fun (dels, segs) -> function
         | Deliver { uid; _ } -> (uid :: dels, segs)
         | Install { view_id; members } -> ([], (view_id, members, dels) :: segs))
       ([], []) log.events_rev)

let logs_in_order t = List.map (log_of t) (member_pids t)

(* The first [Some] of [f x y] over the pairs with [x] before [y] in [xs]. *)
let rec find_pair f = function
  | [] -> None
  | x :: rest -> (
    match List.find_map (f x) rest with
    | Some _ as found -> found
    | None -> find_pair f rest)

(* Symmetric difference of two sorted uid sets, and its rendering. *)
let difference s1 s2 =
  if s1 = s2 then []
  else
    List.filter (fun u -> not (List.mem u s2)) s1
    @ List.filter (fun u -> not (List.mem u s1)) s2

let msg_list uids = String.concat ", " (List.map (Printf.sprintf "msg#%d") uids)

(* --- oracles -------------------------------------------------------------- *)

(* At-most-once and causal order are judged by [Delivery_judge], over one
   index per member log that {!check} builds once; the total-order oracle
   reads the same index. *)
module Delivery_judge = Repro_analyze.Delivery_judge

(* At-most-once: no uid is delivered twice to the same member. *)
let check_duplicates judged =
  List.find_map
    (fun (log, m) ->
      match Delivery_judge.duplicates m with
      | (uid, _) :: _ ->
        Some
          { oracle = "at-most-once"; member = log.name;
            detail = Printf.sprintf "msg#%d delivered twice" uid;
            uids = [ uid ] }
      | [] -> None)
    judged

(* Members that install the same view id agree on its membership. *)
let check_view_agreement t =
  let installed = Hashtbl.create 16 in
  List.find_map
    (fun log ->
      List.find_map
        (fun (vid, mems, _) ->
          match Hashtbl.find_opt installed vid with
          | None ->
            Hashtbl.add installed vid (mems, log.name);
            None
          | Some (mems', from) ->
            if mems = mems' then None
            else
              Some
                { oracle = "view-agreement"; member = log.name;
                  detail =
                    Printf.sprintf
                      "view %d has members {%s} here but {%s} at %s" vid
                      (String.concat "," (List.map string_of_int mems))
                      (String.concat "," (List.map string_of_int mems'))
                      from;
                  uids = [] })
        (segments log))
    (logs_in_order t)

(* Per-sender FIFO: the delivered subsequence of any one sender's messages
   appears in send order. *)
let check_fifo t =
  List.find_map
    (fun log ->
      let last = Hashtbl.create 16 in
      List.find_map
        (fun uid ->
          let s = info t uid in
          match Hashtbl.find_opt last s.sender with
          | Some (prev_seq, prev_uid) when s.sender_seq <= prev_seq ->
            Some
              { oracle = "fifo-order"; member = log.name;
                detail =
                  Printf.sprintf
                    "msg#%d (send %d of %s) delivered after msg#%d (send %d)"
                    uid s.sender_seq (name_of t s.sender) prev_uid prev_seq;
                uids = [ prev_uid; uid ] }
          | _ ->
            Hashtbl.replace last s.sender (s.sender_seq, uid);
            None)
        (deliveries log))
    (logs_in_order t)

(* Causal order: a message is delivered only after every message its sender
   had delivered or sent when issuing it ("happened-before" predecessors).
   A member that joined after a predecessor was sent is exempt from it. *)
let check_causal t judged =
  let context uid = (info t uid).context in
  let sent_at uid = (info t uid).sent_at in
  List.find_map
    (fun (log, m) ->
      match
        Delivery_judge.causal_order m ~joined_at:log.first_install_at ~context
          ~sent_at
      with
      | [] -> None
      | { Delivery_judge.uid; pred; pred_pos; _ } :: _ ->
        let detail : (_, _, _) format =
          match pred_pos with
          | Some _ -> "msg#%d delivered before its causal predecessor msg#%d"
          | None -> "msg#%d delivered but its causal predecessor msg#%d never was"
        in
        Some
          { oracle = "causal-order"; member = log.name;
            detail = Printf.sprintf detail uid pred; uids = [ pred; uid ] })
    judged

(* Total order: any two survivors agree on the relative order of every pair
   of messages both delivered. Restricted to survivors because the
   guarantee is not uniform: a member that crashes mid-view may have
   delivered in the dead sequencer's order while the survivors — for whom
   part of that order died with it — agree on a different one. That is the
   paper's atomicity-without-durability gap, not a protocol bug. *)
let check_total judged ~survivors =
  let delivered_by m u = Option.is_some (Delivery_judge.position m u) in
  let rec first_diff a b =
    match (a, b) with
    | x :: a', y :: b' -> if x = y then first_diff a' b' else Some (x, y)
    | _, _ -> None
  in
  find_pair
    (fun (p, mp) (q, mq) ->
      Option.map
        (fun (x, y) ->
          { oracle = "total-order"; member = p.name;
            detail =
              Printf.sprintf
                "%s delivered msg#%d before msg#%d; %s delivered them in the \
                 opposite order"
                p.name x y q.name;
            uids = [ x; y ] })
        (first_diff
           (List.filter (delivered_by mq) (deliveries p))
           (List.filter (delivered_by mp) (deliveries q))))
    (List.filter (fun (log, _) -> List.mem log.pid survivors) judged)

(* Virtual synchrony: two members that move together from view v to the same
   next view v' must deliver identical message sets while in v. *)
let check_view_sync t =
  let rec transitions log = function
    | (vid, _, dels) :: ((vid', mems', _) :: _ as rest) ->
      (log, vid, vid', mems', List.sort_uniq Int.compare dels)
      :: transitions log rest
    | _ -> []
  in
  find_pair
    (fun (log, vid, vid', mems', dels) (log2, vid2, vid2', mems2', dels2) ->
      if
        vid = vid2 && vid' = vid2'
        && List.mem log.pid mems2'
        && List.mem log2.pid mems'
      then
        match difference dels dels2 with
        | [] -> None
        | diff ->
          Some
            { oracle = "virtual-synchrony"; member = log.name;
              detail =
                Printf.sprintf
                  "%s and %s both moved from view %d to view %d but \
                   delivered different sets in view %d (difference: %s)"
                  log.name log2.name vid vid' vid (msg_list diff);
              uids = diff }
      else None)
    (List.concat_map (fun log -> transitions log (segments log)) (logs_in_order t))

(* Atomic all-or-none delivery at quiescence: survivors sharing the same
   final view delivered the same message set within it. *)
let check_convergence t ~survivors =
  let final pid =
    let log = log_of t pid in
    match List.rev (segments log) with
    | (vid, mems, dels) :: _ -> Some (log, vid, mems, List.sort_uniq Int.compare dels)
    | [] -> None
  in
  find_pair
    (fun (log, vid, mems, dels) (log2, vid2, mems2, dels2) ->
      if vid <> vid2 || mems <> mems2 then None
      else
        match difference dels dels2 with
        | [] -> None
        | diff ->
          Some
            { oracle = "atomic-delivery"; member = log.name;
              detail =
                Printf.sprintf
                  "survivors %s and %s diverged in final view %d \
                   (difference: %s)"
                  log.name log2.name vid (msg_list diff);
              uids = diff })
    (List.filter_map final survivors)

(* Liveness at quiescence: a survivor has delivered every message it sent
   (its own multicasts are never lost to itself). *)
let check_self_delivery t ~survivors =
  List.find_map
    (fun pid ->
      let log = log_of t pid in
      let delivered = Hashtbl.create 64 in
      List.iter (fun u -> Hashtbl.replace delivered u ()) log.delivered_rev;
      List.find_map
        (fun uid ->
          if Hashtbl.mem delivered uid then None
          else
            Some
              { oracle = "self-delivery"; member = log.name;
                detail =
                  Printf.sprintf
                    "surviving sender never delivered its own msg#%d \
                     (stalled ordering queue?)"
                    uid;
                uids = [ uid ] })
        (List.rev log.sent_rev))
    survivors

(* Serializability through lib/txn: treat each multicast as a write to one
   of a few registers (key = uid mod 3, value = uid); under a total order
   every initial survivor's replica must read, for each key, the value of
   the last write in the agreed order. The History checker is the judge. *)
let check_history t ~survivors =
  let initial =
    List.filter
      (fun pid ->
        let log = log_of t pid in
        log.first_install_at = Some Sim_time.zero)
      survivors
  in
  match List.map (log_of t) initial with
  | [] | [ _ ] -> None
  | reference :: _ as logs ->
    let key_of uid = Printf.sprintf "k%d" (uid mod 3) in
    let h = History.create () in
    let serial = deliveries reference in
    List.iteri
      (fun i uid ->
        History.record h ~client:0
          ~op:(History.Write { key = key_of uid; value = uid })
          ~invoked_at:(i + 1) ~completed_at:(i + 1))
      serial;
    let n_writes = List.length serial in
    let keys = [ "k0"; "k1"; "k2" ] in
    List.iteri
      (fun j log ->
        let final = Hashtbl.create 4 in
        List.iter (fun uid -> Hashtbl.replace final (key_of uid) uid)
          (deliveries log);
        List.iteri
          (fun k key ->
            let at = n_writes + 1 + (j * List.length keys) + k in
            History.record h ~client:(j + 1)
              ~op:(History.Read { key; result = Hashtbl.find_opt final key })
              ~invoked_at:at ~completed_at:at)
          keys)
      logs;
    if History.linearizable h then None
    else
      Some
        { oracle = "txn-serializability"; member = reference.name;
          detail =
            (match History.first_violation h with
             | Some s -> s
             | None -> "replica reads are not serializable in the agreed order");
          uids = [] }

(* --- the per-mode oracle suite ------------------------------------------- *)

let check t ~ordering ~survivors =
  seal t;
  let judged =
    List.map
      (fun log -> (log, Delivery_judge.index (deliveries log)))
      (logs_in_order t)
  in
  let common =
    [ (fun _ -> check_duplicates judged); check_view_agreement; check_fifo ]
  in
  let causal = [ (fun t -> check_causal t judged) ] in
  let total = [ (fun _ -> check_total judged ~survivors) ] in
  let quiescent =
    [
      check_view_sync;
      (fun t -> check_convergence t ~survivors);
      (fun t -> check_self_delivery t ~survivors);
    ]
  in
  let history = [ (fun t -> check_history t ~survivors) ] in
  let suite =
    match (ordering : Config.ordering) with
    | Config.Fifo -> common @ quiescent
    | Config.Causal -> common @ causal @ quiescent
    | Config.Total_sequencer | Config.Total_lamport ->
      common @ causal @ total @ quiescent @ history
  in
  List.find_map (fun oracle -> oracle t) suite

(* --- export to the offline analyzer ---------------------------------------- *)

module Exec = Repro_analyze.Exec

let to_exec t ~ordering ~label =
  seal t;
  (* One member's program order: its own sends (ascending sender_seq) merged
     with its deliveries. Timestamp ties go to the delivery (a reaction send
     issued inside a delivery callback carries the same timestamp and must
     follow its trigger) — except against the send of that very uid, which
     always precedes its own delivery. *)
  let send_first s = function
    | [] -> true
    | (uid, at) :: _ ->
      let c = Sim_time.compare s.sent_at at in
      c < 0 || (c = 0 && s.uid = uid)
  in
  (* one pass over the member's merged program order, numbering each event *)
  let rec merge pid pseq sends delivers (ss, ds) =
    match (sends, delivers) with
    | s :: srest, _ when send_first s delivers ->
      let send =
        { Exec.uid = s.uid; sender = s.sender; sender_seq = s.sender_seq;
          sent_at = s.sent_at; send_pseq = pseq; context = s.context;
          semantic = None; label = Printf.sprintf "u%d" s.uid }
      in
      merge pid (pseq + 1) srest delivers (send :: ss, ds)
    | _, (uid, at) :: drest ->
      let delivery = { Exec.d_pid = pid; d_uid = uid; d_at = at; d_pseq = pseq } in
      merge pid (pseq + 1) sends drest (ss, delivery :: ds)
    | _, [] -> (ss, ds)
  in
  let member pid =
    let log = log_of t pid in
    let delivers =
      List.filter_map
        (function Deliver { uid; at } -> Some (uid, at) | Install _ -> None)
        (List.rev log.events_rev)
    in
    merge pid 0 (List.rev_map (info t) log.sent_rev) delivers ([], [])
  in
  let members = List.map member (member_pids t) in
  let sends =
    List.sort
      (fun (a : Exec.send) b ->
        let c = Sim_time.compare a.sent_at b.sent_at in
        if c <> 0 then c else Int.compare a.uid b.uid)
      (List.concat_map fst members)
  in
  let deliveries =
    List.sort
      (fun (a : Exec.delivery) b ->
        let c = Sim_time.compare a.d_at b.d_at in
        if c <> 0 then c
        else
          let c = Int.compare a.d_pid b.d_pid in
          if c <> 0 then c else Int.compare a.d_pseq b.d_pseq)
      (List.concat_map snd members)
  in
  {
    Exec.exec_label = label;
    ordering =
      Some
        (match (ordering : Config.ordering) with
         | Config.Fifo -> Exec.Fifo_order
         | Config.Causal -> Exec.Causal_order
         | Config.Total_sequencer | Config.Total_lamport -> Exec.Total_order);
    processes = List.map (fun pid -> (pid, name_of t pid)) (member_pids t);
    sends;
    deliveries;
    externals = [];
    channel_edges = [];
  }

(* --- counterexample trace ------------------------------------------------- *)

let pp_trace fmt t ~uids =
  seal t;
  let uids = List.sort_uniq Int.compare uids in
  let uids = List.filteri (fun i _ -> i < 8) uids in
  List.iter
    (fun uid ->
      match Hashtbl.find_opt t.sends uid with
      | None -> Format.fprintf fmt "  msg#%d: unknown@," uid
      | Some s ->
        Format.fprintf fmt "  msg#%d sent by %s (send %d, depth %d%s) at %.1fms@,"
          uid (name_of t s.sender) s.sender_seq s.depth
          (if s.partial then ", partial" else "")
          (Sim_time.to_ms_float s.sent_at);
        List.iter
          (fun log ->
            let rec find i = function
              | [] -> None
              | Deliver { uid = u; at } :: _ when u = uid -> Some (i, at)
              | Deliver _ :: rest -> find (i + 1) rest
              | Install _ :: rest -> find i rest
            in
            match find 0 (List.rev log.events_rev) with
            | Some (i, at) ->
              Format.fprintf fmt "    %-8s delivered at %.1fms (position %d)@,"
                log.name (Sim_time.to_ms_float at) i
            | None -> Format.fprintf fmt "    %-8s never delivered@," log.name)
          (logs_in_order t))
    uids
