type latency =
  | Fixed of Sim_time.t
  | Uniform of Sim_time.t * Sim_time.t
  | Exponential of { mean_us : float; floor : Sim_time.t }

type t = {
  latency : latency;
  mutable drop_probability : float;
  mutable duplicate_probability : float;
  detection_delay : Sim_time.t;
  processing_time : Sim_time.t;
  mutable blocked_pairs : (int * int) list;
}

let create ?(latency = Uniform (Sim_time.ms 1, Sim_time.ms 5))
    ?(drop_probability = 0.0) ?(detection_delay = Sim_time.ms 50)
    ?(processing_time = Sim_time.zero) () =
  { latency; drop_probability; duplicate_probability = 0.0; detection_delay;
    processing_time; blocked_pairs = [] }

let sample_delay t rng =
  match t.latency with
  | Fixed d -> d
  | Uniform (lo, hi) -> Rng.uniform_int rng lo hi
  | Exponential { mean_us; floor } ->
    Sim_time.add floor (Sim_time.of_float_us (Rng.exponential rng mean_us))

let drops t rng = t.drop_probability > 0.0 && Rng.bool rng t.drop_probability

let duplicates t rng =
  t.duplicate_probability > 0.0 && Rng.bool rng t.duplicate_probability

let min_latency t =
  match t.latency with
  | Fixed d -> d
  | Uniform (lo, _) -> lo
  | Exponential { floor; _ } ->
    (* of_float_us rounds up to at least 1us, so the shifted exponential
       never samples below floor + 1us *)
    Sim_time.add floor (Sim_time.us 1)

let detection_delay t = t.detection_delay
let processing_time t = t.processing_time

let set_drop_probability t p = t.drop_probability <- p
let set_duplicate_probability t p = t.duplicate_probability <- p

let partition t side_a side_b =
  let pairs =
    List.concat_map (fun a -> List.map (fun b -> (a, b)) side_b) side_a
  in
  t.blocked_pairs <- pairs @ t.blocked_pairs

let heal t = t.blocked_pairs <- []

(* a top-level walk: [blocked] runs on every send and every delivery, and
   a [List.exists] predicate would allocate its closure each time *)
let rec pair_listed ~src ~dst = function
  | [] -> false
  | (a, b) :: rest ->
    (a = src && b = dst) || (a = dst && b = src) || pair_listed ~src ~dst rest

let blocked t ~src ~dst = pair_listed ~src ~dst t.blocked_pairs
