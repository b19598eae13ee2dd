(* The splitmix64 state lives unboxed in an 8-byte buffer: a mutable [int64]
   field would box a fresh value on every draw. The representation does not
   change the stream. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 seed;
  t

(* splitmix64: Steele, Lea & Flood, "Fast splittable pseudorandom number
   generators", OOPSLA 2014. Inlined into the draws below, so they keep the
   intermediate values unboxed. *)
let[@inline] int64 t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = create (int64 t)

let int t bound =
  assert (bound > 0);
  (* shift by 2 so the value fits OCaml's 63-bit native int *)
  let raw = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  raw mod bound

let[@inline] float t bound =
  let raw = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  raw /. 9007199254740992.0 *. bound

let bool t p = float t 1.0 < p

let uniform_int t lo hi =
  assert (hi >= lo);
  lo + int t (hi - lo + 1)

let exponential t mean =
  let u = float t 1.0 in
  let u = if u <= 0.0 then 1e-12 else u in
  -.mean *. log u

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
