type provenance = Fifo | Local | Delivery | External of string

type edge = { src : Exec.node; dst : Exec.node; why : provenance }

type t = {
  exec : Exec.t;
  nodes : Exec.node array;  (* index -> node *)
  index : (Exec.node, int) Hashtbl.t;
  succ : (int * provenance) list array;  (* reduced, deterministic order *)
  raw_succ : int list array;  (* pre-reduction, for cycle search *)
  cyclic : bool;
  (* Strict forward-reachability bitsets, one per source, computed lazily;
     keyed separately for the full relation and the transport-only one. *)
  reach_full : (int, Bytes.t) Hashtbl.t;
  reach_transport : (int, Bytes.t) Hashtbl.t;
}

let exec t = t.exec
let node_count t = Array.length t.nodes

(* --- construction ----------------------------------------------------------- *)

let provenance_rank = function
  | Delivery -> 0
  | Fifo -> 1
  | Local -> 2
  | External _ -> 3

let transport_visible = function
  | Fifo | Local | Delivery -> true
  | External _ -> false

let collect_nodes (e : Exec.t) =
  let index = Hashtbl.create 64 in
  let order = ref [] in
  let n = ref 0 in
  let add node =
    if not (Hashtbl.mem index node) then begin
      Hashtbl.add index node !n;
      incr n;
      order := node :: !order
    end
  in
  List.iter (fun (s : Exec.send) -> add (Exec.Send_ev s.uid)) e.sends;
  List.iter (fun (d : Exec.delivery) -> add (Exec.Deliver_ev (d.d_pid, d.d_uid))) e.deliveries;
  List.iter (fun (x : Exec.ext_event) -> add (Exec.Ext_ev x.ext_id)) e.externals;
  List.iter
    (fun (c : Exec.channel_edge) ->
      add c.ch_src;
      add c.ch_dst)
    e.channel_edges;
  let nodes = Array.of_list (List.rev !order) in
  (nodes, index)

(* Raw edge list, before reduction: program order per process, send-to-
   delivery edges, declared channel edges. Every producer assigns each send
   a fresh uid, but a process may deliver a uid twice (the at-most-once
   violation the analyzer reports): both deliveries collapse onto one
   Deliver_ev node, so their program-order edges merge and the edge
   between them, a self-loop, is dropped. *)
let raw_edges (e : Exec.t) index =
  let edges = ref [] in
  let add src dst why =
    let si = Hashtbl.find index src and di = Hashtbl.find index dst in
    if si <> di then edges := (si, di, why) :: !edges
  in
  let by_pid : (int, (int * Exec.node * bool) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let push pid pseq node is_send =
    let cell =
      match Hashtbl.find_opt by_pid pid with
      | Some c -> c
      | None ->
        let c = ref [] in
        Hashtbl.add by_pid pid c;
        c
    in
    cell := (pseq, node, is_send) :: !cell
  in
  List.iter
    (fun (s : Exec.send) -> push s.sender s.send_pseq (Exec.Send_ev s.uid) true)
    e.sends;
  List.iter
    (fun (d : Exec.delivery) ->
      push d.d_pid d.d_pseq (Exec.Deliver_ev (d.d_pid, d.d_uid)) false)
    e.deliveries;
  List.iter
    (fun (x : Exec.ext_event) ->
      push x.ext_pid x.ext_pseq (Exec.Ext_ev x.ext_id) false)
    e.externals;
  Hashtbl.iter
    (fun _pid cell ->
      let events =
        List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) !cell
      in
      let rec link = function
        | (_, a, a_send) :: ((_, b, b_send) :: _ as rest) ->
          add a b (if a_send && b_send then Fifo else Local);
          link rest
        | [ _ ] | [] -> ()
      in
      link events)
    by_pid;
  let send_exists uid = Hashtbl.mem index (Exec.Send_ev uid) in
  List.iter
    (fun (d : Exec.delivery) ->
      if send_exists d.d_uid then
        add (Exec.Send_ev d.d_uid) (Exec.Deliver_ev (d.d_pid, d.d_uid)) Delivery)
    e.deliveries;
  List.iter
    (fun (c : Exec.channel_edge) -> add c.ch_src c.ch_dst (External c.ch_label))
    e.channel_edges;
  !edges

(* Kahn's algorithm; on failure, walk maximal-in-degree leftovers to produce
   a witness cycle. Returns a topological order when acyclic. *)
let topo_order n succ =
  let indegree = Array.make n 0 in
  Array.iter (List.iter (fun d -> indegree.(d) <- indegree.(d) + 1)) succ;
  let queue = Queue.create () in
  Array.iteri (fun i d -> if d = 0 then Queue.add i queue) indegree;
  let order = ref [] in
  let seen = ref 0 in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    incr seen;
    order := u :: !order;
    List.iter
      (fun v ->
        indegree.(v) <- indegree.(v) - 1;
        if indegree.(v) = 0 then Queue.add v queue)
      succ.(u)
  done;
  if !seen = n then Some (List.rev !order) else None

let witness_cycle n succ =
  (* Nodes still carrying in-degree after Kahn form the cyclic core; follow
     successors inside the core until a node repeats. *)
  let indegree = Array.make n 0 in
  Array.iter (List.iter (fun d -> indegree.(d) <- indegree.(d) + 1)) succ;
  let queue = Queue.create () in
  Array.iteri (fun i d -> if d = 0 then Queue.add i queue) indegree;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    List.iter
      (fun v ->
        indegree.(v) <- indegree.(v) - 1;
        if indegree.(v) = 0 then Queue.add v queue)
      succ.(u)
  done;
  let in_core i = indegree.(i) > 0 in
  let start = ref None in
  Array.iteri (fun i d -> if d > 0 && !start = None then start := Some i) indegree;
  match !start with
  | None -> None
  | Some start ->
    let visited_at = Hashtbl.create 16 in
    let path = ref [] in
    let rec walk u steps =
      match Hashtbl.find_opt visited_at u with
      | Some at ->
        (* keep the suffix of the walk from the first visit of [u] *)
        let cycle =
          List.rev !path
          |> List.filteri (fun i _ -> i >= at)
        in
        Some cycle
      | None ->
        Hashtbl.add visited_at u steps;
        path := u :: !path;
        (match List.find_opt in_core succ.(u) with
         | Some v -> walk v (steps + 1)
         | None -> None)
    in
    walk start 0

(* Strict reachability from [src] over the chosen edge set. *)
let bfs_reach n succ ~visible src =
  let reached = Bytes.make n '\000' in
  let queue = Queue.create () in
  let push v =
    if Bytes.get reached v = '\000' then begin
      Bytes.set reached v '\001';
      Queue.add v queue
    end
  in
  List.iter (fun (v, why) -> if visible why then push v) succ.(src);
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    List.iter (fun (v, why) -> if visible why then push v) succ.(u)
  done;
  reached

let build (e : Exec.t) =
  let nodes, index = collect_nodes e in
  let n = Array.length nodes in
  let raw = raw_edges e index in
  (* Parallel edges collapse onto the strongest provenance so the reduced
     graph has at most one edge per (src, dst). *)
  let best : (int * int, provenance) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (s, d, why) ->
      match Hashtbl.find_opt best (s, d) with
      | Some prev when provenance_rank prev <= provenance_rank why -> ()
      | Some _ | None -> Hashtbl.replace best (s, d) why)
    raw;
  let raw_succ = Array.make n [] in
  Hashtbl.iter (fun (s, d) _why -> raw_succ.(s) <- d :: raw_succ.(s)) best;
  Array.iteri
    (fun i succs -> raw_succ.(i) <- List.sort_uniq Int.compare succs)
    raw_succ;
  let cyclic = topo_order n raw_succ = None in
  let typed_succ = Array.make n [] in
  Hashtbl.iter
    (fun (s, d) why -> typed_succ.(s) <- (d, why) :: typed_succ.(s))
    best;
  Array.iteri
    (fun i succs ->
      typed_succ.(i) <-
        List.sort (fun (a, _) (b, _) -> Int.compare a b) succs)
    typed_succ;
  let succ =
    if cyclic then typed_succ
    else begin
      (* Transitive reduction: drop u->v when some other direct successor w
         of u already reaches v. Strict BFS reach per candidate w, cached. *)
      let cache = Hashtbl.create 64 in
      let reach w =
        match Hashtbl.find_opt cache w with
        | Some r -> r
        | None ->
          let r = bfs_reach n typed_succ ~visible:(fun _ -> true) w in
          Hashtbl.add cache w r;
          r
      in
      Array.map
        (fun succs ->
          List.filter
            (fun (v, _why) ->
              not
                (List.exists
                   (fun (w, _) -> w <> v && Bytes.get (reach w) v = '\001')
                   succs))
            succs)
        typed_succ
    end
  in
  {
    exec = e;
    nodes;
    index;
    succ;
    raw_succ;
    cyclic;
    reach_full = Hashtbl.create 16;
    reach_transport = Hashtbl.create 16;
  }

(* --- queries ---------------------------------------------------------------- *)

let edges t =
  let out = ref [] in
  for i = Array.length t.succ - 1 downto 0 do
    List.iter
      (fun (j, why) ->
        out := { src = t.nodes.(i); dst = t.nodes.(j); why } :: !out)
      (List.rev t.succ.(i))
  done;
  !out

let find_cycle t =
  if not t.cyclic then None
  else
    match witness_cycle (Array.length t.nodes) t.raw_succ with
    | None -> None
    | Some ids -> Some (List.map (fun i -> t.nodes.(i)) ids)

let reach_set t ~transport_only src =
  let cache, visible =
    if transport_only then (t.reach_transport, transport_visible)
    else (t.reach_full, fun _ -> true)
  in
  match Hashtbl.find_opt cache src with
  | Some r -> r
  | None ->
    let r = bfs_reach (Array.length t.nodes) t.succ ~visible src in
    Hashtbl.add cache src r;
    r

let reaches t ?(transport_only = false) a b =
  match (Hashtbl.find_opt t.index a, Hashtbl.find_opt t.index b) with
  | Some ia, Some ib ->
    Bytes.get (reach_set t ~transport_only ia) ib = '\001'
  | _, _ -> false

let shortest_path t ?(transport_only = false) a b =
  match (Hashtbl.find_opt t.index a, Hashtbl.find_opt t.index b) with
  | Some ia, Some ib ->
    let n = Array.length t.nodes in
    let parent = Array.make n None in
    let seen = Bytes.make n '\000' in
    let queue = Queue.create () in
    Bytes.set seen ia '\001';
    Queue.add ia queue;
    let found = ref false in
    while (not !found) && not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      List.iter
        (fun (v, why) ->
          let visible = (not transport_only) || transport_visible why in
          if visible && Bytes.get seen v = '\000' then begin
            Bytes.set seen v '\001';
            parent.(v) <- Some (u, why);
            if v = ib then found := true else Queue.add v queue
          end)
        t.succ.(u)
    done;
    if not !found then None
    else begin
      let rec unwind v acc =
        match parent.(v) with
        | None -> acc
        | Some (u, why) ->
          let e = { src = t.nodes.(u); dst = t.nodes.(v); why } in
          if u = ia then e :: acc else unwind u (e :: acc)
      in
      Some (unwind ib [])
    end
  | _, _ -> None

(* --- rendering -------------------------------------------------------------- *)

let describe_node (e : Exec.t) = function
  | Exec.Send_ev uid ->
    (match Exec.find_send e uid with
     | Some s ->
       Printf.sprintf "send u%d by %s" uid (Exec.process_name e s.sender)
     | None -> Printf.sprintf "send u%d" uid)
  | Exec.Deliver_ev (pid, uid) ->
    Printf.sprintf "deliver u%d at %s" uid (Exec.process_name e pid)
  | Exec.Ext_ev id ->
    (match List.find_opt (fun (x : Exec.ext_event) -> x.ext_id = id) e.externals with
     | Some x ->
       Printf.sprintf "%s at %s" x.ext_label (Exec.process_name e x.ext_pid)
     | None -> Printf.sprintf "external event %d" id)

let provenance_name = function
  | Fifo -> "fifo"
  | Local -> "local"
  | Delivery -> "delivery"
  | External label -> Printf.sprintf "external: %s" label

let describe_edge (e : Exec.t) edge =
  Printf.sprintf "%s -> %s [%s]"
    (describe_node e edge.src)
    (describe_node e edge.dst)
    (provenance_name edge.why)
