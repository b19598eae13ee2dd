(* Rows are merged monotonically, so each column's minimum only ever
   advances. The cache keeps, per column, the current minimum and how many
   rows sit exactly at it: a row leaving the minimum decrements the count,
   and only when the count hits zero is the column rescanned — O(rows) per
   actual advance of the minimum, O(1) for every other update. *)
type t = {
  rows : Vector_clock.t array;
  mins : int array;  (* cached per-column minima *)
  at_min : int array;  (* rows whose component equals the cached minimum *)
}

let create n =
  { rows = Array.init n (fun _ -> Vector_clock.create n);
    mins = Array.make n 0;
    at_min = Array.make n n }

let row t i = t.rows.(i)

let rescan_column t s =
  let best = ref max_int in
  let count = ref 0 in
  for i = 0 to Array.length t.rows - 1 do
    let v = Vector_clock.get t.rows.(i) s in
    if v < !best then begin
      best := v;
      count := 1
    end
    else if v = !best then incr count
  done;
  t.mins.(s) <- !best;
  t.at_min.(s) <- !count

(* Count row [r] off the cached minimum of every column that [vc] advances,
   from component [from] on. A column whose count reaches zero stays at zero
   until [update_row_tracked] rescans it, after the row has merged. Only the
   advancing components cost calls into [Vector_clock]. *)
let rec leave_minima t r vc from =
  let s = Vector_clock.first_exceeding vc r ~from ~skip:(-1) in
  if s >= 0 then begin
    if Vector_clock.get r s = t.mins.(s) then t.at_min.(s) <- t.at_min.(s) - 1;
    leave_minima t r vc (s + 1)
  end

let update_row_tracked t i vc ~advanced =
  let r = t.rows.(i) in
  if Vector_clock.size vc <> Vector_clock.size r then
    invalid_arg "Matrix_clock.update_row: size mismatch";
  leave_minima t r vc 0;
  Vector_clock.merge_into r vc;
  for s = 0 to Array.length t.at_min - 1 do
    if t.at_min.(s) = 0 then begin
      rescan_column t s;
      advanced s
    end
  done

let update_row t i vc = update_row_tracked t i vc ~advanced:(fun _ -> ())

(* Single-cell merge: row [i]'s component [s] advances to [seq] if larger.
   Equivalent to [update_row_tracked] with a vector equal to the row
   everywhere but [s] — the per-delivery fast path, O(1) instead of a
   full-row merge. *)
let update_cell_tracked t i s ~seq ~advanced =
  let r = t.rows.(i) in
  let old = Vector_clock.get r s in
  if seq > old then begin
    Vector_clock.set r s seq;
    if old = t.mins.(s) then begin
      t.at_min.(s) <- t.at_min.(s) - 1;
      if t.at_min.(s) = 0 then begin
        rescan_column t s;
        advanced s
      end
    end
  end

let update_cell t i s ~seq = update_cell_tracked t i s ~seq ~advanced:(fun _ -> ())

let min_component t s = t.mins.(s)

let stable t ~sender ~seq = t.mins.(sender) >= seq
