(* PC-broadcast causal layer state (Nédelec et al., "Breaking the
   Scalability Barrier of Causal Broadcast", SRDS 2018).

   The algorithm replaces vector-timestamp piggybacking with a structural
   argument: if every pair of members communicates over a FIFO link, and a
   member forwards every message to its overlay neighbors the moment it
   delivers it (and before anything it subsequently sends), then the
   receive order on each incoming link is causally consistent, and a
   per-origin contiguity gate (FIFO-gap delivery) suffices for full causal
   order. The only per-message control information is (origin, origin_seq)
   — constant in group size.

   This module keeps the per-view bookkeeping that is specific to PC mode:
   the overlay neighbor set, per-link open/deferred barrier state for fresh
   links (the ping/pong join barrier), the arrival-link record used to
   avoid echoing a message back where it came from, and counters the tests
   and benches read. The delivery machinery itself is [Delivery]'s, which
   reuses the FIFO-gap delivery queue and the stability tracker. *)

(* Test hook, in the style of [Delivery_queue.chaos_disable_causal_check]:
   with forwarding disabled, PC degrades to plain FIFO links — per-origin
   order survives but cross-origin causality does not, and the checker's
   causal oracle must convict the stack. *)
let chaos_disable_forwarding = ref false

type stats = {
  mutable forwards : int;  (* copies forwarded on first delivery *)
  mutable duplicates_dropped : int;  (* redundant copies suppressed *)
  mutable barrier_deferred : int;  (* sends withheld on un-opened links *)
  mutable barrier_retransmits : int;  (* unstable copies resent on pong *)
  mutable pings_sent : int;
  mutable pongs_sent : int;
}

type link = { peer_rank : int; mutable opened : bool }

type t = {
  rank : int;
  group_size : int;
  neighbors : int array;  (* overlay neighbor ranks, ascending *)
  links : link array;  (* same order as [neighbors] *)
  arrival : (Wire.msg_id, int) Hashtbl.t;
      (* first-copy arrival link (peer rank; -1 for out-of-band paths such
         as flush re-sends) for every message currently queued or being
         delivered: doubles as the queued-duplicate filter *)
  zero_stamp : Vector_clock.t;
      (* the [vt] of every multicast this view stamps; nothing writes it *)
  stats : stats;
}

let overlay_neighbors (overlay : Config.pc_overlay) ~rank ~group_size =
  match overlay with
  | Config.Pc_full_mesh ->
    Array.init (group_size - 1) (fun i -> if i < rank then i else i + 1)
  | Config.Pc_tree { fanout } ->
    let fanout = max 1 fanout in
    let acc = ref [] in
    (* children, then parent; sorted ascending below *)
    for c = fanout downto 1 do
      let child = (rank * fanout) + c in
      if child < group_size then acc := child :: !acc
    done;
    if rank > 0 then acc := ((rank - 1) / fanout) :: !acc;
    let a = Array.of_list !acc in
    Array.sort Int.compare a;
    a

let create (config : Config.t) ~rank ~group_size ~link_fresh =
  let neighbors =
    overlay_neighbors config.Config.pc_overlay ~rank ~group_size
  in
  { rank; group_size; neighbors;
    links =
      Array.map
        (fun peer_rank -> { peer_rank; opened = not (link_fresh peer_rank) })
        neighbors;
    arrival = Hashtbl.create 64;
    zero_stamp = Vector_clock.create group_size;
    stats =
      { forwards = 0; duplicates_dropped = 0; barrier_deferred = 0;
        barrier_retransmits = 0; pings_sent = 0; pongs_sent = 0 } }

let neighbors t = t.neighbors
let stats t = t.stats
let zero_stamp t = t.zero_stamp

let find_link t peer_rank =
  let rec go i =
    if i >= Array.length t.links then None
    else if t.links.(i).peer_rank = peer_rank then Some t.links.(i)
    else go (i + 1)
  in
  go 0

let link_open t ~peer_rank =
  match find_link t peer_rank with Some l -> l.opened | None -> false

let fresh_links t =
  Array.to_list t.links
  |> List.filter_map (fun l -> if l.opened then None else Some l.peer_rank)

let open_link t ~peer_rank =
  match find_link t peer_rank with
  | Some l -> l.opened <- true
  | None -> ()

let is_queued t msg_id = Hashtbl.mem t.arrival msg_id

let note_queued t ~msg_id ~from_rank = Hashtbl.replace t.arrival msg_id from_rank

let note_duplicate t = t.stats.duplicates_dropped <- t.stats.duplicates_dropped + 1

let take_arrival t msg_id =
  match Hashtbl.find_opt t.arrival msg_id with
  | Some r ->
    Hashtbl.remove t.arrival msg_id;
    r
  | None -> -1

(* Forward targets for a message from [origin_rank] that first arrived on
   the link from [from_rank]: every overlay neighbor except where it came
   from and except its origin (both already have it). Closed links are kept
   out here; the pong-triggered unstable retransmission covers them. Runs
   once per delivery, so it walks [links] in place instead of building a
   target list. *)
let iter_forward_targets t ~from_rank ~origin_rank f =
  if not !chaos_disable_forwarding then
    for i = 0 to Array.length t.links - 1 do
      let l = t.links.(i) in
      if l.opened && l.peer_rank <> from_rank && l.peer_rank <> origin_rank
      then f l.peer_rank
    done

(* The messages a freshly opened link's peer is missing, given the
   [delivered] vector its pong carried: exactly the unstable buffer filtered
   by per-origin delivered counts. Anything the peer lacks cannot have
   stabilised (stability requires delivery by every member), so the
   unstable buffer is a complete source. [unstable] is in stamping order
   ([Wire.compare_stamping] — causally consistent under both msg-id
   schemes), so the link stays FIFO-causal. *)
let missing_for ~delivered unstable =
  List.filter
    (fun (d : 'a Wire.data) ->
      Wire.seq d > Vector_clock.get delivered d.Wire.sender_rank)
    unstable
