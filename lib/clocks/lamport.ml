type t = { mutable value : int }

let create () = { value = 0 }
let value t = t.value

let tick t =
  t.value <- t.value + 1;
  t.value

let observe t remote =
  t.value <- max t.value remote + 1;
  t.value

type stamp = { time : int; node : int }

let stamp t ~node = { time = tick t; node }

let compare_stamp a b =
  match Int.compare a.time b.time with
  | 0 -> Int.compare a.node b.node
  | c -> c

