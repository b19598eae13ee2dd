type mode = Fifo_gap | Causal_full

type 'a pending = { data : 'a Wire.data; arrived_at : Sim_time.t }

let chaos_disable_causal_check = ref false

let condition_holds mode ~local (pending : 'a pending) =
  let data = pending.data in
  let sender = data.Wire.sender_rank in
  match mode with
  | Fifo_gap -> Wire.seq data = Vector_clock.get local sender + 1
  | Causal_full ->
    if !chaos_disable_causal_check then
      Wire.seq data = Vector_clock.get local sender + 1
    else Vector_clock.deliverable ~sender ~msg:data.Wire.vt ~local

(* Both delivery conditions pin the message's per-sender sequence number to
   exactly [local(sender) + 1], so at any instant each sender has at most one
   candidate slot. Messages are bucketed per sender into a growable ring of
   sequence-number slots; a ready-candidate min-heap (keyed by arrival order,
   so the oldest deliverable arrival is returned first) remembers which
   senders currently hold a deliverable head, and a waiting index maps vector
   clock components to the senders blocked on them, so a local-clock advance
   re-checks only the senders it could have unblocked. The common-case pop is
   O(log senders) plus one condition check, instead of a full O(pending)
   rescan of one arrival-ordered list. *)

type 'a entry = { pending : 'a pending; arrival : int }

type 'a sender = {
  rank : int;
  mutable slots : 'a entry list array;
      (* circular: sequence number [base + i] lives at index
         [(head + i) mod capacity]; each slot holds its entries in arrival
         order (longer than one element only for duplicates) *)
  mutable head : int;
  mutable base : int;
  mutable window : int;  (* slots in use: seqs in [base, base + window) *)
  mutable count : int;
  mutable cand : 'a entry option;
      (* cached first-arrived deliverable entry, absent if blocked *)
}

type 'a t = {
  mode : mode;
  obs : (Repro_obs.Log.t * int) option;  (* telemetry log, owner pid *)
  senders : (int, 'a sender) Hashtbl.t;
  ready : (int * int) Heap.t;  (* (arrival, rank), stale entries pruned lazily *)
  recheck : (int, unit) Hashtbl.t;  (* ranks whose verdict must be recomputed *)
  waiting : (int, (int, unit) Hashtbl.t) Hashtbl.t;
      (* clock component -> ranks whose head is blocked on it *)
  mutable last_local : int array;  (* [||] until the first synchronisation *)
  mutable last_chaos : bool;
  mutable size : int;
  mutable next_arrival : int;
  mutable sole : ('a entry * 'a sender) option;
      (* the single buffered entry (and its sender record) when
         [size = 1]. The entry is NOT in the ring: the empty->one->empty
         add/take cycle touches no slots, no heap and no recheck state —
         one condition check each way. It is materialised into the ring
         (and its recheck raised) the moment a second entry forces the
         slow path. *)
  mutable last_sender : 'a sender option;
      (* memoized last [add] lookup; valid as long as the record is in
         [senders] (records are only dropped by [drain]) *)
}

let create ?obs mode =
  { mode;
    obs;
    senders = Hashtbl.create 16;
    ready = Heap.create ~cmp:(fun (a, _) (b, _) -> Int.compare a b);
    recheck = Hashtbl.create 16;
    waiting = Hashtbl.create 16;
    last_local = [||];
    last_chaos = false;
    size = 0;
    next_arrival = 0;
    sole = None;
    last_sender = None }

let length t = t.size

let flag_recheck t rank = Hashtbl.replace t.recheck rank ()

let wait_on t ~component ~rank =
  let set =
    match Hashtbl.find_opt t.waiting component with
    | Some set -> set
    | None ->
      let set = Hashtbl.create 4 in
      Hashtbl.add t.waiting component set;
      set
  in
  Hashtbl.replace set rank ()

let wake_component t component =
  flag_recheck t component;  (* rank [component]'s candidate slot moved *)
  match Hashtbl.find_opt t.waiting component with
  | None -> ()
  | Some set ->
    Hashtbl.iter (fun rank () -> flag_recheck t rank) set;
    Hashtbl.remove t.waiting component

let wake_all t = Hashtbl.iter (fun rank _ -> flag_recheck t rank) t.senders

(* --- per-sender ring ---------------------------------------------------- *)

let slot_index s seq = (s.head + (seq - s.base)) mod Array.length s.slots

let relayout s ~new_base ~need =
  let cap = ref (max 8 (Array.length s.slots)) in
  while !cap < need do
    cap := !cap * 2
  done;
  let fresh = Array.make !cap [] in
  let old_cap = Array.length s.slots in
  for i = 0 to s.window - 1 do
    fresh.(s.base - new_base + i) <- s.slots.((s.head + i) mod old_cap)
  done;
  s.slots <- fresh;
  s.head <- 0;
  s.base <- new_base;
  s.window <- need

let ensure_slot s seq =
  if s.count = 0 then begin
    if Array.length s.slots = 0 then s.slots <- Array.make 8 [];
    s.base <- seq;
    s.head <- 0;
    s.window <- 1
  end
  else if seq < s.base then relayout s ~new_base:seq ~need:(s.base + s.window - seq)
  else if seq >= s.base + Array.length s.slots then
    relayout s ~new_base:s.base ~need:(seq - s.base + 1)
  else if seq >= s.base + s.window then s.window <- seq - s.base + 1

let slot_entries s seq =
  if s.count > 0 && seq >= s.base && seq < s.base + s.window then
    s.slots.(slot_index s seq)
  else []

(* drop leading empty slots so the candidate lookup stays in-window *)
let compact s =
  let cap = Array.length s.slots in
  while s.window > 0 && s.slots.(s.head) = [] do
    s.head <- (s.head + 1) mod cap;
    s.base <- s.base + 1;
    s.window <- s.window - 1
  done

(* --- candidate maintenance ---------------------------------------------- *)

(* Recompute [s.cand]: scan the single candidate slot in arrival order for
   the first entry whose condition holds. Entries scanned before the chosen
   one (or all of them, if none passes) register the clock components they
   are short of, so the next advance of any such component re-checks this
   sender. *)
let compute_candidate t s ~local =
  s.cand <- None;
  if s.count > 0 then begin
    let next = Vector_clock.get local s.rank + 1 in
    let rec scan = function
      | [] -> ()
      | entry :: rest ->
        if condition_holds t.mode ~local entry.pending then begin
          s.cand <- Some entry;
          Heap.push t.ready (entry.arrival, s.rank)
        end
        else begin
          (* note every unsatisfied component of this entry *)
          let vt = entry.pending.data.Wire.vt in
          let n = min (Vector_clock.size vt) (Vector_clock.size local) in
          for k = 0 to n - 1 do
            if k <> s.rank && Vector_clock.get vt k > Vector_clock.get local k
            then wait_on t ~component:k ~rank:s.rank
          done;
          scan rest
        end
    in
    scan (slot_entries s next)
  end

(* Bring the cached verdicts up to date with [local]. Clock components that
   advanced wake exactly the senders indexed under them; a shrinking or
   resized clock (never produced by the stack, but reachable from tests)
   falls back to re-checking everyone, as does toggling the chaos hook. *)
let sync t ~local =
  let n = Vector_clock.size local in
  let full =
    ref
      (t.last_chaos <> !chaos_disable_causal_check
      || Array.length t.last_local <> n)
  in
  if not !full then begin
    for i = 0 to n - 1 do
      let now = Vector_clock.get local i in
      let before = t.last_local.(i) in
      if now < before then full := true
      else if now > before then wake_component t i
    done
  end;
  if !full then wake_all t;
  if Array.length t.last_local <> n then t.last_local <- Array.make n 0;
  for i = 0 to n - 1 do
    t.last_local.(i) <- Vector_clock.get local i
  done;
  t.last_chaos <- !chaos_disable_causal_check

(* --- interface ----------------------------------------------------------- *)

let insert_entry t s (entry : 'a entry) =
  let seq = Wire.seq entry.pending.data in
  ensure_slot s seq;
  let i = slot_index s seq in
  s.slots.(i) <- s.slots.(i) @ [ entry ];
  s.count <- s.count + 1;
  (* a later arrival can only create a candidate, never displace one *)
  if s.cand = None then flag_recheck t s.rank

let add t pending =
  (match t.obs with
   | Some (log, pid) ->
     Repro_obs.Log.span_queued log ~at:pending.arrived_at
       ~uid:pending.data.Wire.msg_id ~pid
   | None -> ());
  let rank = pending.data.Wire.sender_rank in
  let s =
    match t.last_sender with
    | Some s when s.rank = rank -> s
    | _ ->
      let s =
        match Hashtbl.find_opt t.senders rank with
        | Some s -> s
        | None ->
          let s =
            { rank; slots = [||]; head = 0; base = 0; window = 0;
              count = 0; cand = None }
          in
          Hashtbl.add t.senders rank s;
          s
      in
      t.last_sender <- Some s;
      s
  in
  let entry = { pending; arrival = t.next_arrival } in
  t.next_arrival <- t.next_arrival + 1;
  t.size <- t.size + 1;
  if t.size = 1 then
    (* empty -> one: the entry stays out of the ring entirely *)
    t.sole <- Some (entry, s)
  else begin
    (* a previously sole entry enters the ring first: lower arrival, so
       slot lists stay in arrival order *)
    (match t.sole with
    | Some (prev, prev_s) ->
      t.sole <- None;
      insert_entry t prev_s prev
    | None -> ());
    insert_entry t s entry
  end

let remove_entry t s entry =
  let seq = Wire.seq entry.pending.data in
  let i = slot_index s seq in
  (match s.slots.(i) with
  | [ e ] when e.arrival = entry.arrival -> s.slots.(i) <- []
  | l -> s.slots.(i) <- List.filter (fun e -> e.arrival <> entry.arrival) l);
  s.count <- s.count - 1;
  t.size <- t.size - 1;
  (* the sender record is kept even when empty: the uncontended add/take
     cycle would otherwise re-allocate the record and its slot ring on
     every message *)
  compact s

(* Single-entry fast path: the sole entry was never inserted into the
   ring, so a hit is one condition check and two field writes — no slot,
   heap or recheck work at all. Skipping [sync] here leaves [last_local]
   stale-low, which is safe — a later sync sees a larger delta and
   re-checks at most too many senders, never too few. *)
let rec take_deliverable t ~local =
  if t.size = 0 then None
  else
    match t.sole with
    | Some (entry, _) when condition_holds t.mode ~local entry.pending ->
      t.sole <- None;
      t.size <- 0;
      Some entry.pending
    | Some _ -> None  (* the one buffered entry is blocked *)
    | None -> take_slow t ~local

and take_slow t ~local =
  sync t ~local;
  if Hashtbl.length t.recheck > 0 then begin
    Hashtbl.iter
      (fun rank () ->
        match Hashtbl.find_opt t.senders rank with
        | Some s -> compute_candidate t s ~local
        | None -> ())
      t.recheck;
    Hashtbl.reset t.recheck
  end;
  let rec pop () =
    match Heap.pop t.ready with
    | None -> None
    | Some (arrival, rank) -> (
      match Hashtbl.find_opt t.senders rank with
      | None -> pop ()
      | Some s -> (
        match s.cand with
        | Some entry when entry.arrival = arrival ->
          remove_entry t s entry;
          s.cand <- None;
          (* the same sender may hold another deliverable duplicate, and a
             caller is allowed to take again without advancing the clock *)
          flag_recheck t rank;
          Some entry.pending
        | Some _ | None -> pop ()))
  in
  pop ()

let all_entries t =
  let in_ring =
    Hashtbl.fold
      (fun _ s acc ->
        let acc = ref acc in
        for i = 0 to s.window - 1 do
          acc :=
            List.rev_append s.slots.((s.head + i) mod Array.length s.slots)
              !acc
        done;
        !acc)
      t.senders []
  in
  let all =
    match t.sole with Some (e, _) -> e :: in_ring | None -> in_ring
  in
  List.sort (fun a b -> Int.compare a.arrival b.arrival) all

let to_list t = List.map (fun e -> e.pending) (all_entries t)

let drain t =
  let all = to_list t in
  Hashtbl.reset t.senders;
  Heap.clear t.ready;
  Hashtbl.reset t.recheck;
  Hashtbl.reset t.waiting;
  t.last_local <- [||];
  t.size <- 0;
  t.sole <- None;
  t.last_sender <- None;
  all
