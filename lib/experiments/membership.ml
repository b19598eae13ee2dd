module Config = Repro_catocs.Config
module Stack = Repro_catocs.Stack
module Metrics = Repro_catocs.Metrics

type point = {
  group_size : int;
  flush_duration_ms : float;
  view_change_control_msgs : int;
  dropped_at_view_change : int;
  post_change_delivery_ok : bool;
}

type run_outcome = {
  flush_messages : int;
  suppressed_us : int;
  dropped : int;
  probe_delivered : int;
}

let run_once ~seed ~group_size ~crash =
  let net = Net.create ~latency:(Net.Uniform (500, 4_000)) () in
  let engine = Engine.create ~seed ~net () in
  let config = { Config.default with Config.ordering = Config.Causal } in
  let stacks =
    Stack.create_group ~engine ~config
      ~names:(List.init group_size (fun i -> Printf.sprintf "p%d" i)) ()
  in
  let probe_delivered = ref 0 in
  Array.iteri
    (fun i stack ->
      Stack.set_callbacks stack
        { Stack.null_callbacks with
          Stack.deliver =
            (fun ~sender:_ v -> if v = -1 && i > 0 then incr probe_delivered) };
      let cancel =
        Engine.every engine ~owner:(Stack.self stack)
          ~start:(Sim_time.us (1_000 + (i * 173)))
          ~period:(Sim_time.ms 10)
          (fun () -> Stack.multicast stack i)
      in
      Engine.at engine (Sim_time.ms 600) cancel)
    stacks;
  if crash then
    Engine.at engine (Sim_time.ms 300) (fun () ->
        Engine.crash engine (Stack.self stacks.(group_size - 1)));
  (* a probe after things settle: does the group still deliver? *)
  Engine.at engine (Sim_time.ms 700) (fun () -> Stack.multicast stacks.(0) (-1));
  Engine.run ~until:(Sim_time.seconds 1) engine;
  let flush_msgs = ref 0 and suppressed = ref 0 and dropped = ref 0 in
  Array.iter
    (fun stack ->
      let m = Stack.metrics stack in
      flush_msgs := !flush_msgs + m.Metrics.flush_messages;
      suppressed := max !suppressed m.Metrics.suppressed_us;
      dropped := !dropped + m.Metrics.dropped_at_view_change)
    stacks;
  { flush_messages = !flush_msgs; suppressed_us = !suppressed;
    dropped = !dropped; probe_delivered = !probe_delivered }

let measure ~seed group_size =
  let with_crash = run_once ~seed ~group_size ~crash:true in
  let survivors_minus_sender = group_size - 2 in
  { group_size;
    flush_duration_ms = float_of_int with_crash.suppressed_us /. 1000.0;
    view_change_control_msgs = with_crash.flush_messages;
    dropped_at_view_change = with_crash.dropped;
    post_change_delivery_ok =
      with_crash.probe_delivered >= survivors_minus_sender }

let sweep ?(sizes = [ 4; 8; 16; 32 ]) ?(seed = 41L) () =
  List.map (fun n -> measure ~seed n) sizes

let table points =
  let rows =
    List.map
      (fun p ->
        [ Table.cell_int p.group_size;
          Table.cell_float ~decimals:2 p.flush_duration_ms;
          Table.cell_int p.view_change_control_msgs;
          Table.cell_int p.dropped_at_view_change;
          Table.cell_bool p.post_change_delivery_ok ])
      points
  in
  Table.make ~id:"membership-scaling"
    ~title:"view-change (flush) cost vs group size"
    ~paper_ref:"Section 5 (membership change protocols)"
    ~columns:
      [ "N"; "send suppression (ms)"; "view-change msgs"; "dropped msgs";
        "delivery after change" ]
    ~notes:
      [ "view-change msgs = flush + flush-done + new-view messages (unstable re-sends included)";
        "suppression: members queue application multicasts for the whole flush" ]
    rows

let run () = table (sweep ())
