type mode = Fifo_gap | Causal_full

type 'a pending = { data : 'a Wire.data; arrived_at : Sim_time.t }

let chaos_disable_causal_check = ref false

(* The layout is described in the interface. Between takes, verdicts hold
   against the clock of the last synchronisation ([ranks.clock]): each
   sender's [cand] is its candidate slot's first deliverable entry (a
   later-arrived one is never examined while it is set), and every watched
   entry lacks the component whose list holds it. A take first brings them
   up to date with the caller's clock. *)

type 'a entry =
  | Nil
  | Entry of {
      pending : 'a pending;
      arrival : int;
      mutable dup : 'a entry;  (* next arrival with the same sequence number *)
      mutable watch_next : 'a entry;  (* next entry of the same watch list *)
      mutable watched : bool;  (* in a watch list, hence blocked *)
    }

type 'a sender = {
  rank : int;
  mutable slots : 'a entry array;
      (* power-of-two ring: sequence number [q] heads the arrival-ordered
         [dup] chain at index [q land (capacity - 1)] *)
  mutable base : int;
  mutable window : int;  (* seqs in [base, base + window); 0 when empty *)
  mutable cand : 'a entry;
      (* first deliverable entry of the candidate slot, [Nil] if none; while
         set, its key is in the ready heap *)
}

(* everything indexed by rank (= clock component), regrown together *)
type 'a ranks = {
  clock : Vector_clock.t;  (* at the last synchronisation; empty before *)
  senders : 'a sender option array;
  watch : 'a entry array;  (* component -> entries blocked on it *)
}

type 'a t = {
  mode : mode;
  obs : (Repro_obs.Log.t * int) option;  (* telemetry log, owner pid *)
  mutable ranks : 'a ranks;
  ready : int Heap.t;  (* [arrival lsl rank_bits lor rank]; stale keys skipped *)
  mutable last_chaos : bool;  (* the chaos hook at the last synchronisation *)
  mutable size : int;
  mutable next_arrival : int;
}

let rank_bits = 20

let no_ranks () = { clock = Vector_clock.of_list []; senders = [||]; watch = [||] }

let create ?obs mode =
  { mode; obs; ranks = no_ranks (); ready = Heap.create ~cmp:Int.compare;
    last_chaos = false; size = 0; next_arrival = 0 }

let length t = t.size

let ensure_rank t r =
  let r0 = t.ranks in
  let cap = Array.length r0.senders in
  if r >= cap then begin
    let cap' = ref (max 8 cap) in
    while !cap' <= r do
      cap' := !cap' * 2
    done;
    let senders = Array.make !cap' None and watch = Array.make !cap' Nil in
    Array.blit r0.senders 0 senders 0 cap;
    Array.blit r0.watch 0 watch 0 cap;
    t.ranks <- { r0 with senders; watch }
  end

let sender_at t r =
  if r < Array.length t.ranks.senders then t.ranks.senders.(r) else None

(* --- per-sender ring ---------------------------------------------------- *)

let slot s seq = seq land (Array.length s.slots - 1)

let place s seq =
  let lo = if s.window = 0 then seq else min seq s.base in
  let hi = if s.window = 0 then seq else max seq (s.base + s.window - 1) in
  let need = hi - lo + 1 in
  if need > Array.length s.slots then begin
    let cap = ref (max 8 (Array.length s.slots)) in
    while !cap < need do
      cap := !cap * 2
    done;
    let fresh = Array.make !cap Nil in
    for q = s.base to s.base + s.window - 1 do
      fresh.(q land (!cap - 1)) <- s.slots.(slot s q)
    done;
    s.slots <- fresh
  end;
  s.base <- lo;
  s.window <- need

let slot_head s seq =
  if seq >= s.base && seq < s.base + s.window then s.slots.(slot s seq) else Nil

let rec append entry = function
  | Nil -> entry
  | Entry e as chain ->
    e.dup <- append entry e.dup;
    chain

let rec without entry = function
  | Nil -> Nil
  | Entry e as chain ->
    if chain == entry then e.dup
    else begin
      e.dup <- without entry e.dup;
      chain
    end

(* --- verdicts ------------------------------------------------------------ *)

let link t entry k =
  match entry with
  | Nil -> ()
  | Entry e ->
    ensure_rank t k;
    let watch = t.ranks.watch in
    e.watched <- true;
    e.watch_next <- watch.(k);
    watch.(k) <- entry

(* Whether an entry of its sender's candidate slot is deliverable against
   [local], whose components below [from] it is known to be within. The
   slot fixes the sequence number, so only the full BSS condition has more
   to check; a blocked entry is linked under the first component it is
   short of. *)
let judge t ~local ~from = function
  | Nil -> false
  | Entry e as entry -> (
    match t.mode with
    | Causal_full when not t.last_chaos ->
      let d = e.pending.data in
      let k =
        Vector_clock.first_exceeding d.Wire.vt local ~from
          ~skip:d.Wire.sender_rank
      in
      if k >= 0 then link t entry k;
      k < 0
    | Fifo_gap | Causal_full -> true)

let set_cand t s cand =
  if cand != s.cand then begin
    s.cand <- cand;
    match cand with
    | Entry e -> Heap.push t.ready ((e.arrival lsl rank_bits) lor s.rank)
    | Nil -> ()
  end

(* The first deliverable entry of a candidate-slot chain. A watched entry is
   blocked: the clock has not reached its component since it was linked. *)
let rec scan t ~local = function
  | Nil -> Nil
  | Entry e as entry ->
    if (not e.watched) && judge t ~local ~from:0 entry then entry
    else scan t ~local e.dup

let compute_candidate t s ~local =
  set_cand t s (scan t ~local (slot_head s (Vector_clock.get local s.rank + 1)))

(* Re-examine a detached watch list whose component [from] advanced, perhaps
   not far enough. Lower components were reached when an entry was linked
   and the clock has not fallen since (a fall clears every list). An entry
   that fell behind its sender's component can never be delivered again and
   is dropped; one found deliverable replaces a later-arrived candidate. *)
let rec rewatch t ~local ~from = function
  | Nil -> ()
  | Entry e as entry ->
    let next = e.watch_next in
    e.watch_next <- Nil;
    e.watched <- false;
    let d = e.pending.data in
    let r = d.Wire.sender_rank in
    (match t.ranks.senders.(r) with
     | Some s
       when Wire.seq d = Vector_clock.get local r + 1
            && judge t ~local ~from entry -> (
       match s.cand with
       | Entry c when c.arrival < e.arrival -> ()
       | Entry _ | Nil -> set_cand t s entry)
     | Some _ | None -> ());
    rewatch t ~local ~from next

let rec unwatch = function
  | Nil -> ()
  | Entry e ->
    let next = e.watch_next in
    e.watch_next <- Nil;
    e.watched <- false;
    unwatch next

(* Bring the verdicts up to date with [local]. A component that advanced
   moves its sender's candidate slot and re-examines its watch list. A
   falling or resized clock (never produced by the stack, but reachable from
   tests) or a toggled chaos hook clears every watch list and recomputes
   every sender. *)
let sync t ~local =
  let clock = t.ranks.clock in
  let full =
    ref
      (t.last_chaos <> !chaos_disable_causal_check
      || Vector_clock.size clock <> Vector_clock.size local)
  in
  let i =
    ref (if !full then -1 else Vector_clock.first_difference local clock ~from:0)
  in
  while !i >= 0 do
    let c = !i and now = Vector_clock.get local !i in
    if now < Vector_clock.get clock c then full := true
    else begin
      Vector_clock.set clock c now;
      (match sender_at t c with
       | Some s -> compute_candidate t s ~local
       | None -> ());
      if c < Array.length t.ranks.watch then begin
        let list = t.ranks.watch.(c) in
        t.ranks.watch.(c) <- Nil;
        rewatch t ~local ~from:c list
      end
    end;
    i := Vector_clock.first_difference local clock ~from:(c + 1)
  done;
  if !full then begin
    let watch = t.ranks.watch in
    Array.iteri (fun k list -> watch.(k) <- Nil; unwatch list) watch;
    t.ranks <- { t.ranks with clock = Vector_clock.copy local };
    t.last_chaos <- !chaos_disable_causal_check;
    Array.iter
      (function Some s -> compute_candidate t s ~local | None -> ())
      t.ranks.senders
  end

(* --- interface ----------------------------------------------------------- *)

let add t pending =
  (match t.obs with
   | Some (log, pid) ->
     Repro_obs.Log.span_queued log ~at:pending.arrived_at
       ~uid:pending.data.Wire.msg_id ~pid
   | None -> ());
  let rank = pending.data.Wire.sender_rank in
  ensure_rank t rank;
  let s =
    match t.ranks.senders.(rank) with
    | Some s -> s
    | None ->
      let s = { rank; slots = [||]; base = 0; window = 0; cand = Nil } in
      t.ranks.senders.(rank) <- Some s;
      s
  in
  let entry =
    Entry
      { pending; arrival = t.next_arrival; dup = Nil; watch_next = Nil;
        watched = false }
  in
  t.next_arrival <- t.next_arrival + 1;
  t.size <- t.size + 1;
  let seq = Wire.seq pending.data in
  place s seq;
  s.slots.(slot s seq) <- append entry s.slots.(slot s seq);
  (* judged at once against the last synchronised clock: a later arrival
     can only create a candidate, never displace one, and one outside the
     candidate slot is reached when its sender's component advances *)
  let clock = t.ranks.clock in
  if s.cand == Nil && rank < Vector_clock.size clock
     && seq = Vector_clock.get clock rank + 1
     && judge t ~local:clock ~from:0 entry
  then set_cand t s entry

let rec pop_ready t ~local =
  if Heap.is_empty t.ready then None
  else
    let key = Heap.pop_exn t.ready in
    match t.ranks.senders.(key land ((1 lsl rank_bits) - 1)) with
    | Some ({ cand = Entry e as entry; _ } as s)
      when e.arrival = key lsr rank_bits ->
      let i = slot s (Wire.seq e.pending.data) in
      s.slots.(i) <- without entry s.slots.(i);
      s.cand <- Nil;
      t.size <- t.size - 1;
      (* drop leading empty slots; the emptied sender record stays, so the
         uncontended add/take cycle reuses it and its ring *)
      while s.window > 0 && s.slots.(slot s s.base) == Nil do
        s.base <- s.base + 1;
        s.window <- s.window - 1
      done;
      (* the same sender may hold another deliverable duplicate, and a
         caller is allowed to take again without advancing the clock *)
      compute_candidate t s ~local;
      Some e.pending
    | Some _ | None -> pop_ready t ~local

let take_deliverable t ~local =
  if t.size = 0 then None
  else begin
    sync t ~local;
    pop_ready t ~local
  end

let rec chain_rev acc = function
  | Nil -> acc
  | Entry e -> chain_rev ((e.arrival, e.pending) :: acc) e.dup

let to_list t =
  let all = ref [] in
  Array.iter
    (function
      | Some s ->
        for q = s.base to s.base + s.window - 1 do
          all := chain_rev !all s.slots.(slot s q)
        done
      | None -> ())
    t.ranks.senders;
  List.map snd (List.sort (fun (a, _) (b, _) -> Int.compare a b) !all)

let drain t =
  let all = to_list t in
  t.ranks <- no_ranks ();
  Heap.clear t.ready;
  t.size <- 0;
  all
