module Config = Repro_catocs.Config
module Stack = Repro_catocs.Stack
module Metrics = Repro_catocs.Metrics
module Dep_cache = Repro_statelevel.Dep_cache

type mode = Fifo_naive | Fifo_dep_cache | Causal

let seed = 1L

(** reader sites (group members) *)
let readers = 6

let inquiries = 60

(** chance a reader answers an inquiry *)
let response_probability = 0.4

let latency = Net.Uniform (500, 20_000)

type kind = Inquiry | Response of int  (* inquiry article id *)

type article = { id : int; kind : kind; posted_at : Sim_time.t }

type result = {
  mode : mode;
  articles_delivered : int;
  misordered_displays : int;
  parked_responses : int;
  mean_inquiry_to_display_us : float;
  header_bytes : int;
  messages_sent : int;
}

let mode_name = function
  | Fifo_naive -> "fifo-naive"
  | Fifo_dep_cache -> "fifo+dep-cache"
  | Causal -> "causal"

type reader_state = {
  displayed : (int, unit) Hashtbl.t;
  cache : unit Dep_cache.t;
  mutable pending : (int * int * Sim_time.t) list;
      (* (article id, inquiry id, arrived) parked responses *)
  mutable misordered : int;
  mutable parked : int;
}

let run mode =
  let net = Net.create ~latency () in
  let engine = Engine.create ~seed ~net () in
  let ordering =
    match mode with
    | Fifo_naive | Fifo_dep_cache -> Config.Fifo
    | Causal -> Config.Causal
  in
  let group_config = { Config.default with Config.ordering } in
  let stacks =
    Stack.create_group ~engine ~config:group_config
      ~names:(List.init readers (fun i -> Printf.sprintf "site%d" i)) ()
  in
  let rng = Rng.split (Engine.rng engine) in
  let next_article_id = ref 0 in
  let fresh_id () = incr next_article_id; !next_article_id in
  let display_latency = Stats.Summary.create () in
  let delivered_total = ref 0 in
  let states =
    Array.init readers (fun _ ->
        { displayed = Hashtbl.create 64; cache = Dep_cache.create ();
          pending = []; misordered = 0; parked = 0 })
  in
  let key_of id = Printf.sprintf "a%d" id in
  let display state article =
    Hashtbl.replace state.displayed article.id ();
    match article.kind with
    | Response _ ->
      Stats.Summary.add display_latency
        (float_of_int (Sim_time.sub (Engine.now engine) article.posted_at))
    | Inquiry -> ()
  in
  let flush_cache state =
    let still_pending =
      List.filter
        (fun (id, _, _) ->
          match Dep_cache.lookup state.cache ~key:(key_of id) with
          | Some _ ->
            Hashtbl.replace state.displayed id ();
            Stats.Summary.add display_latency
              (float_of_int
                 (Sim_time.sub (Engine.now engine)
                    (let (_, _, t) =
                       List.find (fun (i, _, _) -> i = id) state.pending
                     in
                     t)));
            false
          | None -> true)
        state.pending
    in
    state.pending <- still_pending
  in
  let on_deliver idx article =
    incr delivered_total;
    let state = states.(idx) in
    match mode with
    | Fifo_naive | Causal ->
      (match article.kind with
       | Inquiry -> display state article
       | Response inquiry_id ->
         if not (Hashtbl.mem state.displayed inquiry_id) then
           state.misordered <- state.misordered + 1;
         display state article)
    | Fifo_dep_cache ->
      (match article.kind with
       | Inquiry ->
         Dep_cache.insert state.cache
           { Dep_cache.key = key_of article.id; item_version = 1; value = ();
             deps = [] };
         Hashtbl.replace state.displayed article.id ();
         flush_cache state
       | Response inquiry_id ->
         let satisfied =
           Dep_cache.satisfied state.cache
             { Dep_cache.dep_key = key_of inquiry_id; dep_version = 1 }
         in
         if not satisfied then state.parked <- state.parked + 1;
         Dep_cache.insert state.cache
           { Dep_cache.key = key_of article.id; item_version = 1; value = ();
             deps = [ { Dep_cache.dep_key = key_of inquiry_id; dep_version = 1 } ] };
         if satisfied then display state article
         else
           state.pending <-
             (article.id, inquiry_id, Engine.now engine) :: state.pending;
         flush_cache state)
  in
  Array.iteri
    (fun idx stack ->
      Stack.set_callbacks stack
        { Stack.null_callbacks with
          Stack.deliver =
            (fun ~sender:_ article ->
              on_deliver idx article;
              (* a reader may answer an inquiry it sees *)
              match article.kind with
              | Inquiry
                when Rng.bool rng response_probability
                     && article.id mod readers <> idx ->
                Stack.multicast stack
                  { id = fresh_id (); kind = Response article.id;
                    posted_at = Engine.now engine }
              | Inquiry | Response _ -> ()) })
    stacks;
  for k = 0 to inquiries - 1 do
    let poster = k mod readers in
    Engine.at engine (Sim_time.add (Sim_time.ms 5) (Sim_time.ms (k * 10)))
      (fun () ->
        Stack.multicast stacks.(poster)
          { id = fresh_id (); kind = Inquiry; posted_at = Engine.now engine })
  done;
  let horizon =
    Sim_time.add (Sim_time.ms (inquiries * 10)) (Sim_time.seconds 2)
  in
  Engine.run ~until:horizon engine;
  let header_bytes =
    Array.fold_left
      (fun acc stack -> acc + (Stack.metrics stack).Metrics.header_bytes)
      0 stacks
  in
  { mode;
    articles_delivered = !delivered_total;
    misordered_displays =
      Array.fold_left (fun acc s -> acc + s.misordered) 0 states;
    parked_responses = Array.fold_left (fun acc s -> acc + s.parked) 0 states;
    mean_inquiry_to_display_us =
      (if Stats.Summary.count display_latency = 0 then 0.0
       else Stats.Summary.mean display_latency);
    header_bytes;
    messages_sent = Engine.messages_sent engine }
