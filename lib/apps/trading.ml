module Config = Repro_catocs.Config
module Stack = Repro_catocs.Stack
module Dep_cache = Repro_statelevel.Dep_cache

type config = {
  seed : int64;
  ticks : int;
  latency : Net.latency;
  ordering : Config.ordering;
  causal_impl : Config.causal_impl;
}

let default_config =
  { seed = 1L; ticks = 400; latency = Net.Uniform (500, 15_000);
    ordering = Config.Causal; causal_impl = Config.Vector_causal }

let tick_interval = Sim_time.ms 4

(** true theoretical premium over the option price *)
let spread = 0.01

type msg =
  | Option_tick of { version : int; price : float }
  | Theo of { base_version : int; value : float }

type result = {
  ticks : int;
  naive_false_crossings : int;
  dep_cache_false_crossings : int;
  naive_stale_pairings : int;
  mean_display_lag_us : float;
}

let run ?obs config =
  let net = Net.create ~latency:config.latency () in
  let engine = Engine.create ~seed:config.seed ~net () in
  let group_config =
    Config.with_causal_impl config.causal_impl
      { Config.default with Config.ordering = config.ordering }
  in
  let stacks =
    Stack.create_group ?obs ~engine ~config:group_config
      ~names:[ "option-pricing"; "theoretic-pricing"; "monitor" ] ()
  in
  let option_server, theo_server, monitor =
    match stacks with
    | [| a; b; c |] -> (a, b, c)
    | _ -> invalid_arg "Trading: expected exactly three group members"
  in
  let price_of version = 25.0 +. (0.5 *. float_of_int version) in
  (* the theoretical-pricing service derives from whatever it delivers *)
  Stack.set_callbacks theo_server
    { Stack.null_callbacks with
      Stack.deliver =
        (fun ~sender:_ payload ->
          match payload with
          | Option_tick { version; price } ->
            Stack.multicast theo_server
              (Theo { base_version = version; value = price *. (1.0 +. spread) })
          | Theo _ -> ()) };
  (* the monitor: naive latest-value display vs dependency-field display *)
  let naive_option = ref None in
  (* (version, price) *)
  let naive_theo = ref None in
  (* (base_version, value) *)
  let naive_false_crossings = ref 0 in
  let naive_stale_pairings = ref 0 in
  let cache : float Dep_cache.t = Dep_cache.create () in
  let base_prices : (int, float) Hashtbl.t = Hashtbl.create 64 in
  let dep_false_crossings = ref 0 in
  let pending_theo : (int, Sim_time.t) Hashtbl.t = Hashtbl.create 64 in
  let display_lag = Stats.Summary.create () in
  let check_naive_display () =
    match (!naive_option, !naive_theo) with
    | Some (opt_version, opt_price), Some (base_version, theo_value) ->
      if theo_value < opt_price then incr naive_false_crossings;
      if base_version < opt_version then incr naive_stale_pairings
    | _ -> ()
  in
  let flush_exposed_theos () =
    match Dep_cache.lookup cache ~key:"theo" with
    | None -> ()
    | Some exposed ->
      let v = exposed.Dep_cache.item_version in
      Hashtbl.iter
        (fun version arrived ->
          if version <= v then
            Stats.Summary.add display_lag
              (float_of_int (Sim_time.sub (Engine.now engine) arrived)))
        (Hashtbl.copy pending_theo);
      Hashtbl.iter
        (fun version _ -> if version <= v then Hashtbl.remove pending_theo version)
        (Hashtbl.copy pending_theo);
      (* the dependency-field display compares a theo against its own base *)
      (match Hashtbl.find_opt base_prices v with
       | Some base_price ->
         if exposed.Dep_cache.value < base_price then incr dep_false_crossings
       | None -> ())
  in
  Stack.set_callbacks monitor
    { Stack.null_callbacks with
      Stack.deliver =
        (fun ~sender:_ payload ->
          (match payload with
           | Option_tick { version; price } ->
             naive_option := Some (version, price);
             Hashtbl.replace base_prices version price;
             Dep_cache.insert cache
               { Dep_cache.key = "opt"; item_version = version; value = price;
                 deps = [] }
           | Theo { base_version; value } ->
             naive_theo := Some (base_version, value);
             Hashtbl.replace pending_theo base_version (Engine.now engine);
             Dep_cache.insert cache
               { Dep_cache.key = "theo"; item_version = base_version;
                 value;
                 deps = [ { Dep_cache.dep_key = "opt"; dep_version = base_version } ] });
          check_naive_display ();
          flush_exposed_theos ()) };
  for k = 1 to config.ticks do
    Engine.at engine (Sim_time.add (Sim_time.ms 5) (k * tick_interval))
      (fun () ->
        Stack.multicast option_server
          (Option_tick { version = k; price = price_of k }))
  done;
  let horizon =
    Sim_time.add
      (Sim_time.add (Sim_time.ms 5) (config.ticks * tick_interval))
      (Sim_time.seconds 1)
  in
  Engine.run ~until:horizon engine;
  { ticks = config.ticks;
    naive_false_crossings = !naive_false_crossings;
    dep_cache_false_crossings = !dep_false_crossings;
    naive_stale_pairings = !naive_stale_pairings;
    mean_display_lag_us =
      (if Stats.Summary.count display_lag = 0 then 0.0
       else Stats.Summary.mean display_lag) }
