module Config = Repro_catocs.Config
module Stack = Repro_catocs.Stack
module Metrics = Repro_catocs.Metrics
module Exec = Repro_analyze.Exec
module Recorder = Repro_analyze.Exec.Recorder

type point = {
  ordering : Config.ordering;
  jitter_max_ms : int;
  mean_queue_wait_us : float;
  delayed_fraction : float;
  transit_p99_us : float;
  header_bytes_per_msg : float;
}

let measure ~seed ~group_size ~ordering ~jitter_max_ms =
  let net =
    Net.create ~latency:(Net.Uniform (500, jitter_max_ms * 1_000)) ()
  in
  let engine = Engine.create ~seed ~net () in
  let config = { Config.default with Config.ordering } in
  let stacks =
    Stack.create_group ~engine ~config
      ~names:(List.init group_size (fun i -> Printf.sprintf "p%d" i)) ()
  in
  (* every multicast carries its send time, so each delivery gives an
     exact send -> deliver transit sample *)
  let transits = ref [] in
  Array.iter
    (fun stack ->
      Stack.set_callbacks stack
        { Stack.null_callbacks with
          Stack.deliver =
            (fun ~sender:_ sent_at ->
              transits :=
                float_of_int (Sim_time.sub (Engine.now engine) sent_at)
                :: !transits) })
    stacks;
  (* independent periodic senders: no semantic relation between streams *)
  Array.iteri
    (fun i stack ->
      let cancel =
        Engine.every engine ~owner:(Stack.self stack)
          ~start:(Sim_time.us (1_000 + (i * 313)))
          ~period:(Sim_time.ms 8)
          (fun () -> Stack.multicast stack (Engine.now engine))
      in
      Engine.at engine (Sim_time.seconds 1) cancel)
    stacks;
  Engine.run ~until:(Sim_time.add (Sim_time.seconds 1) (Sim_time.ms 500)) engine;
  let wait = Stats.Summary.create () in
  let delivered = ref 0 and delayed = ref 0 in
  let header_bytes = ref 0 and multicasts = ref 0 in
  Array.iter
    (fun stack ->
      let m = Stack.metrics stack in
      delivered := !delivered + m.Metrics.delivered;
      delayed := !delayed + m.Metrics.delayed_messages;
      header_bytes := !header_bytes + m.Metrics.header_bytes;
      multicasts := !multicasts + m.Metrics.multicasts_sent;
      if Stats.Summary.count m.Metrics.delivery_delay_us > 0 then
        Stats.Summary.add wait (Stats.Summary.mean m.Metrics.delivery_delay_us))
    stacks;
  { ordering; jitter_max_ms;
    mean_queue_wait_us = Stats.Summary.mean wait;
    delayed_fraction = float_of_int !delayed /. float_of_int (max 1 !delivered);
    transit_p99_us = Stats.percentile (Array.of_list !transits) 0.99;
    header_bytes_per_msg =
      float_of_int !header_bytes
      /. float_of_int (max 1 (!multicasts * (group_size - 1))) }

(* The analyzer-facing variant of [measure]: the same independent periodic
   streams, but each multicast carries a recorder uid as payload and declares
   an empty semantic dependency set — so every context entry the causal
   order enforces (beyond the sender's own stream) is false causality by
   construction, and the analyzer can quantify it per message. *)
let record ?(ordering = Config.Causal) () =
  let group_size = 4 and jitter_max_ms = 10 and seed = 21L in
  let duration = Sim_time.ms 200 in
  let discipline =
    match (ordering : Config.ordering) with
    | Config.Fifo -> Exec.Fifo_order
    | Config.Causal -> Exec.Causal_order
    | Config.Total_sequencer | Config.Total_lamport -> Exec.Total_order
  in
  let recorder =
    Recorder.create ~ordering:discipline
      ~label:
        (Printf.sprintf "false-causality %s jitter=%dms"
           (Config.ordering_name ordering) jitter_max_ms)
      ()
  in
  let net =
    Net.create ~latency:(Net.Uniform (500, jitter_max_ms * 1_000)) ()
  in
  let engine = Engine.create ~seed ~net () in
  let config = { Config.default with Config.ordering } in
  let stacks =
    Stack.create_group ~engine ~config
      ~names:(List.init group_size (fun i -> Printf.sprintf "p%d" i)) ()
  in
  Array.iter
    (fun stack ->
      let pid = Stack.self stack in
      Recorder.add_process recorder ~pid ~name:(Engine.name engine pid);
      Stack.set_callbacks stack
        { Stack.null_callbacks with
          Stack.deliver =
            (fun ~sender:_ uid ->
              Recorder.note_delivery recorder ~pid ~uid
                ~at:(Engine.now engine)) })
    stacks;
  Array.iteri
    (fun i stack ->
      let cancel =
        Engine.every engine ~owner:(Stack.self stack)
          ~start:(Sim_time.us (1_000 + (i * 313)))
          ~period:(Sim_time.ms 8)
          (fun () ->
            let uid =
              Recorder.note_send recorder ~semantic:[]
                ~sender:(Stack.self stack) ~at:(Engine.now engine) ()
            in
            Stack.multicast stack uid)
      in
      Engine.at engine duration cancel)
    stacks;
  Engine.run ~until:(Sim_time.add duration (Sim_time.ms 300)) engine;
  Recorder.exec recorder

let sweep ?(group_size = 8) ?(jitters_ms = [ 2; 10; 30 ]) ?(seed = 21L) () =
  List.concat_map
    (fun jitter_max_ms ->
      List.map
        (fun ordering -> measure ~seed ~group_size ~ordering ~jitter_max_ms)
        [ Config.Fifo; Config.Causal; Config.Total_sequencer ])
    jitters_ms

let table points =
  let rows =
    List.map
      (fun p ->
        [ Config.ordering_name p.ordering;
          Table.cell_int p.jitter_max_ms;
          Table.cell_us_as_ms p.mean_queue_wait_us;
          Table.cell_pct p.delayed_fraction;
          Table.cell_us_as_ms p.transit_p99_us;
          Table.cell_float ~decimals:1 p.header_bytes_per_msg ])
      points
  in
  Table.make ~id:"false-causality"
    ~title:"ordering-queue delay on semantically independent traffic"
    ~paper_ref:"Section 3.4 (limitation 4: false causality)"
    ~columns:
      [ "ordering"; "jitter max (ms)"; "mean queue wait"; "delayed msgs";
        "transit p99"; "header B/msg" ]
    ~notes:
      [ "all streams are independent: any wait under causal/total order is false causality";
        "fifo = per-sender order only (the non-CATOCS baseline)" ]
    rows

let run () = table (sweep ())
