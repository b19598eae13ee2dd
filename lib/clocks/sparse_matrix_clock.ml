(* Sparse matrix clock: same observable behavior as [Matrix_clock] (the
   dense cached-minima implementation), O(group) marginal words instead of
   O(group^2).

   The dense representation materialises one n-component vector per row —
   n^2 words per tracker, ~20 GB for a group of 1024 members each holding
   one. But almost every row update merges an immutable timestamp snapshot
   that already exists on the (simulated) wire: under the structural wire
   format the vector a gossip broadcast carries is one shared array
   received by all n members, and a BSS data timestamp is one [copy_tick]
   snapshot shared by every recipient. (Under the encoded format each
   receiver decodes its own gossip vector into a reused target, so there is
   no shared snapshot to adopt and the stack merges it as [~live].)
   Successive snapshots of the same process's clock dominate each other
   (clocks are monotone and FIFO links deliver them in send order), so a
   row can usually *adopt the snapshot by reference* — row interning —
   instead of merging component-by-component into private storage.

   A row is therefore:

   - [base]: a shared snapshot, adopted by reference, never written through
     (initially the tracker-wide all-zero vector);
   - [own]: an override for the row's own component (= its diagonal). The
     hot-path update — a data message advancing just the sender's sequence,
     the only per-message update PC-broadcast mode ever does — then touches
     one integer, no array at all;
   - [owned]: set when an update is a genuine mixture (some components
     ahead, some behind — e.g. gossip racing data on a reordering network)
     and the row had to be materialised into private storage (eviction from
     sharing). A later dominating snapshot re-adopts and drops the private
     array.

   Updates flagged [~live] (the caller's own mutable clock, or a gossip
   vector borrowed from the codec's decode target, as [Stability.observe_vc
   ~live:true] passes them) are never adopted by reference — aliasing a
   vector that keeps mutating would silently invalidate the cached minima —
   and take the materialised path instead.

   The per-column minima cache ([mins]/[at_min]) is maintained with exactly
   the dense implementation's algorithm — a row leaving the cached minimum
   decrements the population count, a rescan runs only when it hits zero —
   so [advanced] callbacks fire for the same columns in the same order on
   any update sequence: the property the differential tests pin. *)

(* Test hook, in the style of [Delivery_queue.chaos_disable_causal_check]:
   with the cache overstating, [min_component] reports the column *maximum*
   and every component increase fires [advanced] — stability tracking then
   releases messages some members have never seen, and the checker's
   atomicity/ordering oracles must convict the stack on faulty schedules. *)
let chaos_overstate_minima = ref false

type row = {
  mutable base : Vector_clock.t;  (* shared snapshot; read-only unless owned *)
  mutable own : int;  (* diagonal override; >= base's diagonal *)
  mutable owned : bool;  (* base is private to this row *)
}

type t = {
  rows : row array;
  zero : Vector_clock.t;  (* the shared all-zero initial base *)
  mins : int array;  (* cached per-column minima *)
  at_min : int array;  (* rows whose component equals the cached minimum *)
  scratch : int array;  (* pre-adoption row image during cache maintenance *)
  mutable interned : int;  (* snapshots adopted by reference *)
  mutable materialized : int;  (* rows evicted into private storage *)
}

let create n =
  let zero = Vector_clock.create n in
  { rows = Array.init n (fun _ -> { base = zero; own = 0; owned = false });
    zero;
    mins = Array.make n 0;
    at_min = Array.make n n;
    scratch = Array.make n 0;
    interned = 0;
    materialized = 0 }

let size t = Array.length t.rows

let row_get t i s =
  let r = t.rows.(i) in
  if s = i then r.own else Vector_clock.get r.base s

let row_snapshot t i =
  Vector_clock.of_list (List.init (size t) (fun s -> row_get t i s))

let interned t = t.interned
let materialized t = t.materialized
let row_owned t i = t.rows.(i).owned
let row_base_is t i vc = t.rows.(i).base == vc

let rescan_column t s =
  let best = ref max_int in
  let count = ref 0 in
  for i = 0 to Array.length t.rows - 1 do
    let v = row_get t i s in
    if v < !best then begin
      best := v;
      count := 1
    end
    else if v = !best then incr count
  done;
  t.mins.(s) <- !best;
  t.at_min.(s) <- !count

(* Component [s] of some row just increased from [old]; maintain the cache
   exactly as the dense implementation does. *)
let cache_bump t s ~old ~advanced =
  if old = t.mins.(s) then begin
    t.at_min.(s) <- t.at_min.(s) - 1;
    if t.at_min.(s) = 0 then begin
      rescan_column t s;
      advanced s
    end
  end;
  if !chaos_overstate_minima then advanced s

(* Eviction: give the row private storage holding its current effective
   value. *)
let materialize t i =
  let r = t.rows.(i) in
  if not r.owned then begin
    let snap = Vector_clock.copy r.base in
    Vector_clock.set snap i r.own;
    r.base <- snap;
    r.owned <- true;
    t.materialized <- t.materialized + 1
  end

(* Merge into private storage, component-by-component like the dense
   implementation. *)
let merge_private t i vc ~advanced =
  materialize t i;
  let r = t.rows.(i) in
  for s = 0 to Vector_clock.size vc - 1 do
    let fresh = Vector_clock.get vc s in
    let old = if s = i then r.own else Vector_clock.get r.base s in
    if fresh > old then begin
      Vector_clock.set r.base s fresh;
      if s = i then r.own <- fresh;
      cache_bump t s ~old ~advanced
    end
  done

let update_row_tracked ?(live = false) t i vc ~advanced =
  let n = Array.length t.rows in
  if Vector_clock.size vc <> n then
    invalid_arg "Sparse_matrix_clock.update_row: size mismatch";
  let r = t.rows.(i) in
  if live && r.owned then
    (* a live vector is never adopted, and on a private row the no-op and
       diagonal-only merges below are the private merge too: skip the
       classification pass. This is every encoded gossip after a row's
       first. *)
    merge_private t i vc ~advanced
  else
  (* one classification pass: what kind of merge is this? *)
  let adv_nondiag = ref false in
  let stale_nondiag = ref false in
  for s = 0 to n - 1 do
    if s <> i then begin
      let fresh = Vector_clock.get vc s in
      let old = row_get t i s in
      if fresh > old then adv_nondiag := true
      else if fresh < old then stale_nondiag := true
    end
  done;
  let diag = Vector_clock.get vc i in
  if not (!adv_nondiag || diag > r.own) then ()
  else if not !adv_nondiag then begin
    (* diagonal-only advance — the PC data hot path: one integer, O(1)
       cache work *)
    let old = r.own in
    r.own <- diag;
    if r.owned then Vector_clock.set r.base i diag;
    cache_bump t i ~old ~advanced
  end
  else if (not live) && not !stale_nondiag then begin
    (* [vc] dominates every non-diagonal component: adopt the snapshot by
       reference. The cache pass needs the pre-adoption image, kept in
       [scratch]. *)
    for s = 0 to n - 1 do
      t.scratch.(s) <- row_get t i s
    done;
    r.base <- vc;
    r.owned <- false;
    if diag > r.own then r.own <- diag;
    t.interned <- t.interned + 1;
    for s = 0 to n - 1 do
      let old = t.scratch.(s) in
      if row_get t i s > old then cache_bump t s ~old ~advanced
    done
  end
  else
    (* a mixture, or a live vector *)
    merge_private t i vc ~advanced

let update_row ?live t i vc =
  update_row_tracked ?live t i vc ~advanced:(fun _ -> ())

(* Single-cell merge: row [i]'s component [s] advances to [seq] if larger.
   Diagonal cells ([s = i]) are the PC data hot path and touch only the
   [own] override; off-diagonal cells evict the row into private storage,
   exactly as [update_row_tracked] would for a live vector differing from
   the row only at [s]. A plain integer never aliases the row, so no [live]
   flag is needed. *)
let update_cell_tracked t i s ~seq ~advanced =
  let r = t.rows.(i) in
  if s = i then begin
    if seq > r.own then begin
      let old = r.own in
      r.own <- seq;
      if r.owned then Vector_clock.set r.base i seq;
      cache_bump t i ~old ~advanced
    end
  end
  else begin
    let old = Vector_clock.get r.base s in
    if seq > old then begin
      materialize t i;
      Vector_clock.set r.base s seq;
      cache_bump t s ~old ~advanced
    end
  end

let update_cell t i s ~seq = update_cell_tracked t i s ~seq ~advanced:(fun _ -> ())

let min_component t s =
  if !chaos_overstate_minima then begin
    (* the mutation: report the column maximum as if it were the minimum *)
    let best = ref 0 in
    for i = 0 to Array.length t.rows - 1 do
      let v = row_get t i s in
      if v > !best then best := v
    done;
    !best
  end
  else t.mins.(s)

let stable t ~sender ~seq = min_component t sender >= seq
