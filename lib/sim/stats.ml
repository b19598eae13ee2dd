module Summary = struct
  (* An all-float record is stored flat, so updating a moment writes the
     double in place instead of boxing a fresh float per [add]. *)
  type moments = { mutable mean : float; mutable max : float }

  type t = { mutable count : int; m : moments }

  let create () = { count = 0; m = { mean = 0.0; max = neg_infinity } }

  (* Welford's online update keeps the mean numerically stable. *)
  let add t x =
    t.count <- t.count + 1;
    let m = t.m in
    let delta = x -. m.mean in
    m.mean <- m.mean +. (delta /. float_of_int t.count);
    if x > m.max then m.max <- x

  let count t = t.count
  let mean t = if t.count = 0 then nan else t.m.mean
  let max t = if t.count = 0 then nan else t.m.max
end

let percentile samples p =
  let n = Array.length samples in
  if n = 0 then nan
  else begin
    let sorted = Array.copy samples in
    Array.sort Float.compare sorted;
    let rank = int_of_float (Float.round (p *. float_of_int (n - 1))) in
    sorted.(Stdlib.max 0 (Stdlib.min (n - 1) rank))
  end
