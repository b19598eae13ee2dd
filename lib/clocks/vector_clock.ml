type t = int array

type order = Before | After | Equal | Concurrent

let create n =
  if n <= 0 then invalid_arg "Vector_clock.create: size must be positive";
  Array.make n 0

let copy = Array.copy
let size = Array.length
let get t i = t.(i)
let set t i v = t.(i) <- v

let tick t i = t.(i) <- t.(i) + 1

let copy_tick t i =
  Array.init (Array.length t) (fun k -> if k = i then t.(k) + 1 else t.(k))

let merge_into (dst : t) (src : t) =
  if Array.length dst <> Array.length src then
    invalid_arg "Vector_clock.merge_into: size mismatch";
  for i = 0 to Array.length dst - 1 do
    if src.(i) > dst.(i) then dst.(i) <- src.(i)
  done

let compare_causal (a : t) (b : t) =
  if Array.length a <> Array.length b then
    invalid_arg "Vector_clock.compare_causal: size mismatch";
  let a_le_b = ref true and b_le_a = ref true in
  for i = 0 to Array.length a - 1 do
    if a.(i) > b.(i) then a_le_b := false;
    if b.(i) > a.(i) then b_le_a := false
  done;
  match (!a_le_b, !b_le_a) with
  | true, true -> Equal
  | true, false -> Before
  | false, true -> After
  | false, false -> Concurrent

let leq a b =
  match compare_causal a b with Before | Equal -> true | After | Concurrent -> false

let equal a b = compare_causal a b = Equal

let deliverable ~sender ~msg ~local =
  let n = Array.length msg in
  let ok = ref (msg.(sender) = local.(sender) + 1) in
  let i = ref 0 in
  while !ok && !i < n do
    if !i <> sender && msg.(!i) > local.(!i) then ok := false;
    incr i
  done;
  !ok

let rec first_exceeding (a : t) (b : t) ~from ~skip =
  if from >= Array.length a || from >= Array.length b then -1
  else if from <> skip && a.(from) > b.(from) then from
  else first_exceeding a b ~from:(from + 1) ~skip

let rec first_difference (a : t) (b : t) ~from =
  if from >= Array.length a || from >= Array.length b then -1
  else if a.(from) <> b.(from) then from
  else first_difference a b ~from:(from + 1)

let missing_dependencies ~sender ~msg ~local =
  let deps = ref [] in
  for i = Array.length msg - 1 downto 0 do
    if i = sender then begin
      if msg.(i) <> local.(i) + 1 then deps := (i, msg.(i)) :: !deps
    end
    else if msg.(i) > local.(i) then deps := (i, msg.(i)) :: !deps
  done;
  !deps

let encoded_size_bytes t = 4 * Array.length t

let to_list = Array.to_list
let of_list l = Array.of_list l

let pp ppf t =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    (Array.to_list t)
