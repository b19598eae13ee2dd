module Summary = struct
  let reservoir_capacity = 1024

  (* An all-float record is stored flat, so updating a moment writes the
     double in place instead of boxing a fresh float per [add]. *)
  type moments = {
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
    mutable sum : float;
  }

  type t = {
    mutable count : int;
    m : moments;
    mutable samples : float array;  (* reservoir; [retained] slots are live *)
    mutable retained : int;
    rng : Rng.t;
  }

  (* Every summary seeds its reservoir from the same constant: results depend
     only on the sequence of [add]/[merge] calls, never on creation order. *)
  let create () =
    { count = 0;
      m = { mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity;
            sum = 0.0 };
      samples = [||]; retained = 0;
      rng = Rng.create 0x5337A75EEDL }

  let store t x =
    if t.retained < reservoir_capacity then begin
      (* still filling: grow the backing array by doubling up to the cap *)
      let len = Array.length t.samples in
      if t.retained = len then begin
        let grown =
          Array.make (Stdlib.min reservoir_capacity (Stdlib.max 16 (2 * len))) 0.0
        in
        Array.blit t.samples 0 grown 0 len;
        t.samples <- grown
      end;
      t.samples.(t.retained) <- x;
      t.retained <- t.retained + 1
    end
    else begin
      (* Algorithm R: the n-th sample replaces a random slot with
         probability cap/n, keeping the reservoir uniform over all inputs. *)
      let j = Rng.int t.rng t.count in
      if j < reservoir_capacity then t.samples.(j) <- x
    end

  (* Welford's online algorithm keeps mean/variance numerically stable; a
     bounded reservoir of raw samples backs the percentiles (exact until
     [reservoir_capacity] samples, uniform-subsample estimates beyond). *)
  let add t x =
    t.count <- t.count + 1;
    let m = t.m in
    let delta = x -. m.mean in
    m.mean <- m.mean +. (delta /. float_of_int t.count);
    m.m2 <- m.m2 +. (delta *. (x -. m.mean));
    if x < m.min then m.min <- x;
    if x > m.max then m.max <- x;
    m.sum <- m.sum +. x;
    store t x

  let count t = t.count
  let retained t = t.retained
  let mean t = if t.count = 0 then nan else t.m.mean

  let stddev t =
    if t.count < 2 then 0.0 else sqrt (t.m.m2 /. float_of_int (t.count - 1))

  let min t = if t.count = 0 then nan else t.m.min
  let max t = if t.count = 0 then nan else t.m.max
  let sum t = t.m.sum

  let percentile t p =
    if t.count = 0 then nan
    else begin
      let sorted = Array.sub t.samples 0 t.retained in
      Array.sort Float.compare sorted;
      let rank =
        int_of_float (Float.round (p *. float_of_int (t.retained - 1)))
      in
      let rank = Stdlib.max 0 (Stdlib.min (t.retained - 1) rank) in
      sorted.(rank)
    end

  let merge acc other =
    if other.count > 0 then begin
      (* Chan et al.'s pairwise update for the moments. *)
      let na = float_of_int acc.count and nb = float_of_int other.count in
      let n = na +. nb in
      let a = acc.m and b = other.m in
      let delta = b.mean -. a.mean in
      let mean = a.mean +. (delta *. nb /. n) in
      let m2 = a.m2 +. b.m2 +. (delta *. delta *. na *. nb /. n) in
      (* Reservoir: when everything both sides ever saw is still retained,
         concatenation is exact; otherwise draw [cap] samples choosing the
         source in proportion to its true (not retained) population. *)
      if acc.count + other.count <= reservoir_capacity then
        Array.iter (fun x -> store acc x) (Array.sub other.samples 0 other.retained)
      else begin
        let merged =
          Array.init reservoir_capacity (fun _ ->
              if Rng.float acc.rng n < na && acc.retained > 0 then
                acc.samples.(Rng.int acc.rng acc.retained)
              else other.samples.(Rng.int acc.rng other.retained))
        in
        acc.samples <- merged;
        acc.retained <- reservoir_capacity
      end;
      acc.count <- acc.count + other.count;
      a.mean <- mean;
      a.m2 <- m2;
      if b.min < a.min then a.min <- b.min;
      if b.max > a.max then a.max <- b.max;
      a.sum <- a.sum +. b.sum
    end

  let pp ppf t =
    if t.count = 0 then Format.fprintf ppf "n=0"
    else
      Format.fprintf ppf "n=%d mean=%.2f sd=%.2f min=%.2f p50=%.2f p99=%.2f max=%.2f"
        t.count (mean t) (stddev t) (min t) (percentile t 0.5)
        (percentile t 0.99) (max t)
end
