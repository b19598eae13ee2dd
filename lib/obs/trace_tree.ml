(* Dissemination-tree reconstruction from the obs log.

   Every copy of a multicast that leaves a node is a [Hop_send] record
   (origin fanout, PC forward, barrier resend). A message's tree is rebuilt
   by picking, for every reached pid, the *earliest* hop that targeted it —
   that hop's sender is the pid's parent. Later hops to an already-reached
   pid render as duplicate-copy leaves: PC forwarding's redundancy.

   All collections are sorted on scalar fields before rendering, so the
   output depends only on the record *set*, never on log order — a
   synchronized log filled under [Engine.Parallel] renders byte-identically
   at every domain count. *)

type hop = {
  at : Sim_time.t;
  src : int;
  dst : int;
  kind : Event.hop_kind;
}

type t = {
  uid : int;
  origin : int;
  sent_at : Sim_time.t;
  bytes : int;
  hops : hop list;                        (* every copy sent, sorted *)
  delivered : (int * Sim_time.t) list;    (* pid -> earliest delivery *)
  stable : (int * Sim_time.t) list;       (* pid -> earliest stability *)
}

let compare_hop a b =
  match Sim_time.compare a.at b.at with
  | 0 -> (
    match Int.compare a.src b.src with
    | 0 -> Int.compare a.dst b.dst
    | c -> c)
  | c -> c

(* Earliest-at wins; tie on the sorted (at, src, dst) order. *)
let of_log log ~uid =
  let hops = ref [] in
  let delivered : (int, Sim_time.t) Hashtbl.t = Hashtbl.create 16 in
  let stable : (int, Sim_time.t) Hashtbl.t = Hashtbl.create 16 in
  let send = ref None in
  let keep tbl pid at =
    match Hashtbl.find_opt tbl pid with
    | Some prev when Sim_time.compare prev at <= 0 -> ()
    | _ -> Hashtbl.replace tbl pid at
  in
  Log.iter log (fun r ->
      match r.Event.event with
      | Event.Span_send { uid = u; pid; bytes } when u = uid ->
        (match !send with
         | Some _ -> ()
         | None -> send := Some (pid, r.Event.at, bytes))
      | Event.Hop_send { uid = u; pid; dst; kind } when u = uid ->
        hops := { at = r.Event.at; src = pid; dst; kind } :: !hops
      | Event.Span_delivered { uid = u; pid } when u = uid ->
        keep delivered pid r.Event.at
      | Event.Span_stable { uid = u; pid } when u = uid ->
        keep stable pid r.Event.at
      | _ -> ());
  match !send with
  | None -> None
  | Some (origin, sent_at, bytes) ->
    let assoc tbl =
      Hashtbl.fold (fun pid at acc -> (pid, at) :: acc) tbl []
      |> List.sort compare
    in
    Some
      { uid; origin; sent_at; bytes;
        hops = List.sort compare_hop !hops;
        delivered = assoc delivered;
        stable = assoc stable }

let uids log =
  let seen = Hashtbl.create 64 in
  let order = ref [] in
  Log.iter log (fun r ->
      match r.Event.event with
      | Event.Span_send { uid; _ } ->
        if not (Hashtbl.mem seen uid) then begin
          Hashtbl.add seen uid ();
          order := uid :: !order
        end
      | _ -> ());
  List.sort Int.compare !order

(* ------------------------------------------------------------------------ *)
(* ASCII renderer *)

let pid_name names pid =
  match List.assoc_opt pid names with
  | Some n -> n
  | None -> Printf.sprintf "p%d" pid

let us t = Sim_time.to_us t

let render ?(names = []) (t : t) =
  let buf = Buffer.create 512 in
  (* first hop to each pid wins; everything else is a duplicate copy *)
  let first_reach : (int, hop) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun h ->
      if h.dst <> t.origin && not (Hashtbl.mem first_reach h.dst) then
        Hashtbl.add first_reach h.dst h)
    t.hops;
  let primary h =
    match Hashtbl.find_opt first_reach h.dst with
    | Some h' -> h' == h
    | None -> false
  in
  (* children of [pid]: its hops, (at, dst)-ordered since [t.hops] is
     sorted by [compare_hop] *)
  let items_of pid = List.filter (fun h -> h.src = pid) t.hops in
  let timing pid =
    let d =
      match List.assoc_opt pid t.delivered with
      | Some at -> Printf.sprintf " delivered @%dus" (us at)
      | None -> " undelivered"
    in
    match List.assoc_opt pid t.stable with
    | Some at -> Printf.sprintf "%s stable @%dus" d (us at)
    | None -> d
  in
  Buffer.add_string buf
    (Printf.sprintf "msg#%d origin %s sent @%dus bytes=%d%s\n" t.uid
       (pid_name names t.origin) (us t.sent_at) t.bytes
       (match List.assoc_opt t.origin t.delivered with
        | Some at -> Printf.sprintf " self-delivered @%dus" (us at)
        | None -> ""));
  let rec walk prefix pid =
    let items = items_of pid in
    let n = List.length items in
    List.iteri
      (fun i h ->
        let last = i = n - 1 in
        let tee = if last then "`-- " else "|-- " in
        let pad = if last then "    " else "|   " in
        if primary h then begin
          Buffer.add_string buf
            (Printf.sprintf "%s%s%s -> %s [%s] @%dus%s\n" prefix tee
               (pid_name names pid) (pid_name names h.dst)
               (Event.hop_kind_name h.kind) (us h.at) (timing h.dst));
          walk (prefix ^ pad) h.dst
        end
        else
          Buffer.add_string buf
            (Printf.sprintf "%s%s%s -> %s [%s] @%dus (duplicate copy)\n" prefix
               tee (pid_name names pid) (pid_name names h.dst)
               (Event.hop_kind_name h.kind) (us h.at)))
      items
  in
  walk "" t.origin;
  Buffer.contents buf

let render_log ?(names = []) log =
  let trees = List.filter_map (fun uid -> of_log log ~uid) (uids log) in
  String.concat "\n" (List.map (render ~names) trees)

(* ------------------------------------------------------------------------ *)
(* Perfetto (chrome-trace) export of hop spans: each copy in flight is an
   "X" slice on the sender's control lane, lasting until the receiver first
   delivered the message (1us when unknown). *)

let hops_chrome_trace ?(names = []) log =
  let trees = List.filter_map (fun uid -> of_log log ~uid) (uids log) in
  let b = Buffer.create 4096 in
  let first = ref true in
  let event line =
    if !first then first := false else Buffer.add_string b ",\n";
    Buffer.add_string b line
  in
  Buffer.add_string b "{\"traceEvents\":[\n";
  let pids = Hashtbl.create 8 in
  List.iter
    (fun (t : t) ->
      Hashtbl.replace pids t.origin ();
      List.iter
        (fun h ->
          Hashtbl.replace pids h.src ();
          Hashtbl.replace pids h.dst ())
        t.hops)
    trees;
  Hashtbl.fold (fun pid () acc -> pid :: acc) pids []
  |> List.sort Int.compare
  |> List.iter (fun pid ->
         event
           (Printf.sprintf
              "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"%s\"}}"
              pid
              (Export.escape (pid_name names pid))));
  List.iter
    (fun (t : t) ->
      List.iter
        (fun h ->
          let ts = us h.at in
          let dur =
            match List.assoc_opt h.dst t.delivered with
            | Some at when Sim_time.compare h.at at < 0 ->
              us (Sim_time.sub at h.at)
            | _ -> 1
          in
          event
            (Printf.sprintf
               "{\"name\":\"hop msg#%d %s\",\"cat\":\"hop\",\"ph\":\"X\",\"ts\":%d,\"dur\":%d,\"pid\":%d,\"tid\":0,\"args\":{\"uid\":%d,\"dst\":%d,\"kind\":\"%s\"}}"
               t.uid
               (Event.hop_kind_name h.kind)
               ts dur h.src t.uid h.dst
               (Event.hop_kind_name h.kind)))
        t.hops)
    trees;
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents b
