type t = {
  accuracy_us : int;
  rng : Rng.t;
  skews : (int, int) Hashtbl.t;
}

let create ?(accuracy_us = 1000) rng =
  { accuracy_us; rng; skews = Hashtbl.create 16 }

let skew_of t ~pid =
  match Hashtbl.find_opt t.skews pid with
  | Some s -> s
  | None ->
    let half = max 1 (t.accuracy_us / 2) in
    let s = Rng.uniform_int t.rng (-half) half in
    Hashtbl.add t.skews pid s;
    s

let read t ~pid ~now =
  let v = Sim_time.add now (skew_of t ~pid) in
  if Sim_time.compare v Sim_time.zero < 0 then Sim_time.zero else v

module Stamped = struct
  type 'a v = { stamp : Sim_time.t; origin : int; v : 'a }

  let compare a b =
    match Sim_time.compare a.stamp b.stamp with
    | 0 -> Int.compare a.origin b.origin
    | c -> c

  let merge current incoming =
    match current with
    | Some c when compare c incoming >= 0 -> c
    | Some _ | None -> incoming
end
