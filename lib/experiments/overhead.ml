module Config = Repro_catocs.Config
module Stack = Repro_catocs.Stack
module Metrics = Repro_catocs.Metrics

type point = {
  ordering : Config.ordering;
  group_size : int;
  header_bytes_per_msg : float;
  control_msgs_per_data_msg : float;
  mean_delivery_delay_us : float;
}

let measure ~seed ~ordering ~group_size =
  let net = Net.create ~latency:(Net.Uniform (500, 3_000)) () in
  let engine = Engine.create ~seed ~net () in
  let config = { Config.default with Config.ordering } in
  let stacks =
    Stack.create_group ~engine ~config
      ~names:(List.init group_size (fun i -> Printf.sprintf "p%d" i)) ()
  in
  Array.iteri
    (fun i stack ->
      let cancel =
        Engine.every engine ~owner:(Stack.self stack)
          ~start:(Sim_time.us (1_000 + (i * 211)))
          ~period:(Sim_time.ms 10)
          (fun () -> Stack.multicast stack i)
      in
      Engine.at engine (Sim_time.ms 500) cancel)
    stacks;
  Engine.run ~until:(Sim_time.ms 700) engine;
  let header_bytes = ref 0 and control = ref 0 and multicasts = ref 0 in
  let delay = Stats.Summary.create () in
  Array.iter
    (fun stack ->
      let m = Stack.metrics stack in
      header_bytes := !header_bytes + m.Metrics.header_bytes;
      control := !control + m.Metrics.control_messages;
      multicasts := !multicasts + m.Metrics.multicasts_sent;
      if Stats.Summary.count m.Metrics.delivery_delay_us > 0 then
        Stats.Summary.add delay (Stats.Summary.mean m.Metrics.delivery_delay_us))
    stacks;
  let sends = max 1 (!multicasts * (group_size - 1)) in
  { ordering; group_size;
    header_bytes_per_msg = float_of_int !header_bytes /. float_of_int sends;
    control_msgs_per_data_msg =
      float_of_int !control /. float_of_int (max 1 !multicasts);
    mean_delivery_delay_us = Stats.Summary.mean delay }

let sweep ?(sizes = [ 4; 16; 64 ]) ?(seed = 31L) () =
  List.concat_map
    (fun group_size ->
      List.map
        (fun ordering -> measure ~seed ~ordering ~group_size)
        [ Config.Fifo; Config.Causal; Config.Total_sequencer;
          Config.Total_lamport ])
    sizes

let table points =
  let rows =
    List.map
      (fun p ->
        [ Config.ordering_name p.ordering;
          Table.cell_int p.group_size;
          Table.cell_float ~decimals:1 p.header_bytes_per_msg;
          Table.cell_float ~decimals:2 p.control_msgs_per_data_msg;
          Table.cell_us_as_ms p.mean_delivery_delay_us ])
      points
  in
  Table.make ~id:"overhead"
    ~title:"per-message ordering overhead vs group size"
    ~paper_ref:"Section 3.4 (limitation 4: can't say efficiently)"
    ~columns:
      [ "ordering"; "N"; "header B/msg"; "ctl msgs/data"; "mean delay" ]
    ~notes:
      [ "causal/total headers carry a vector timestamp: 4 bytes per member";
        "control = stability gossip + sequencer orders + flush traffic" ]
    rows

let run () = table (sweep ())
