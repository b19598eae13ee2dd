let sub_buckets = 16  (* per octave *)
let octaves = 40  (* covers [1, 2^40) us ~= 12.7 simulated days *)
let n_buckets = 1 + (octaves * sub_buckets)  (* bucket 0 = values < 1.0 *)
let max_relative_error = 1.0 /. (2.0 *. float_of_int sub_buckets)

type t = {
  counts : int array;
  mutable count : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
}

let create () =
  { counts = Array.make n_buckets 0; count = 0; sum = 0.0; min_v = infinity;
    max_v = neg_infinity }

let bucket_of v =
  if v < 1.0 then 0
  else begin
    let m, e = Float.frexp v in  (* v = m * 2^e, m in [0.5, 1) *)
    if e > octaves then n_buckets - 1
    else 1 + ((e - 1) * sub_buckets) + int_of_float ((m -. 0.5) *. 32.0)
  end

(* inverse of [bucket_of]: the value range binned into bucket [k >= 1] *)
let bounds k =
  let e = 1 + ((k - 1) / sub_buckets) in
  let s = (k - 1) mod sub_buckets in
  ( Float.ldexp (0.5 +. (float_of_int s /. 32.0)) e,
    Float.ldexp (0.5 +. (float_of_int (s + 1) /. 32.0)) e )

let add t v =
  let k = bucket_of v in
  t.counts.(k) <- t.counts.(k) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum +. v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let count t = t.count
let sum t = t.sum
let min t = if t.count = 0 then nan else t.min_v
let max t = if t.count = 0 then nan else t.max_v

let representative t k =
  let mid =
    if k = 0 then 0.5
    else
      let lo, hi = bounds k in
      (lo +. hi) /. 2.0
  in
  Float.min t.max_v (Float.max t.min_v mid)

let percentile t p =
  if t.count = 0 then nan
  else if p <= 0.0 then t.min_v  (* documented exact extremes *)
  else if p >= 1.0 then t.max_v
  else begin
    (* same nearest-rank convention as Stats.percentile *)
    let rank = int_of_float (Float.round (p *. float_of_int (t.count - 1))) in
    let rank = Stdlib.max 0 (Stdlib.min (t.count - 1) rank) in
    let rec walk k cum =
      let cum = cum + t.counts.(k) in
      if rank < cum || k = n_buckets - 1 then representative t k
      else walk (k + 1) cum
    in
    walk 0 0
  end

let merge acc other =
  for k = 0 to n_buckets - 1 do
    acc.counts.(k) <- acc.counts.(k) + other.counts.(k)
  done;
  acc.count <- acc.count + other.count;
  acc.sum <- acc.sum +. other.sum;
  if other.min_v < acc.min_v then acc.min_v <- other.min_v;
  if other.max_v > acc.max_v then acc.max_v <- other.max_v

let buckets t =
  let acc = ref [] in
  for k = n_buckets - 1 downto 0 do
    if t.counts.(k) > 0 then begin
      let lo, hi = if k = 0 then (0.0, 1.0) else bounds k in
      acc := (lo, hi, t.counts.(k)) :: !acc
    end
  done;
  !acc
