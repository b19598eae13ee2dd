(* Protocol tests for the CATOCS stack: ordering guarantees, stability,
   atomic delivery, view changes, and the transport layer. *)

module Config = Repro_catocs.Config
module Group = Repro_catocs.Group
module Stack = Repro_catocs.Stack
module Wire = Repro_catocs.Wire
module Delivery_queue = Repro_catocs.Delivery_queue
module Total_order = Repro_catocs.Total_order
module Transport = Repro_catocs.Transport
module Wire_codec = Repro_catocs.Wire_codec
module Endpoint = Repro_catocs.Endpoint

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- harness ------------------------------------------------------------- *)

type world = {
  engine : int Wire.t Transport.packet Engine.t;
  stacks : int Stack.t array;
  deliveries : (Engine.pid * int) list array;  (* newest first *)
  views_seen : Group.view list array;
  failures_seen : Engine.pid list array;
}

let make_world ?(n = 3) ?(ordering = Config.Causal)
    ?(latency = Net.Uniform (500, 5_000)) ?(seed = 1L) ?(drop = 0.0)
    ?(transport = Config.Bare)
    ?(gossip_period = Config.default.Config.gossip_period)
    ?(track_graph = Config.default.Config.track_graph) () =
  let net = Net.create ~latency ~drop_probability:drop () in
  let engine = Engine.create ~seed ~net () in
  let config =
    { Config.default with Config.ordering; transport; gossip_period; track_graph }
  in
  let stacks =
    Stack.create_group ~engine ~config
      ~names:(List.init n (fun i -> Printf.sprintf "p%d" i)) ()
  in
  let deliveries = Array.make n [] in
  let views_seen = Array.make n [] in
  let failures_seen = Array.make n [] in
  Array.iteri
    (fun i stack ->
      Stack.set_callbacks stack
        {
          Stack.deliver =
            (fun ~sender payload ->
              deliveries.(i) <- (sender, payload) :: deliveries.(i));
          view_change = (fun v -> views_seen.(i) <- v :: views_seen.(i));
          member_failed = (fun p -> failures_seen.(i) <- p :: failures_seen.(i));
          direct = (fun ~src:_ _ -> ());
        })
    stacks;
  { engine; stacks; deliveries; views_seen; failures_seen }

let delivered_payloads world i = List.rev_map snd world.deliveries.(i)

let run world t = Engine.run ~until:t world.engine

(* --- basic delivery ------------------------------------------------------ *)

let test_causal_all_deliver () =
  let w = make_world () in
  Stack.multicast w.stacks.(0) 42;
  run w (Sim_time.ms 100);
  for i = 0 to 2 do
    Alcotest.(check (list int))
      (Printf.sprintf "member %d delivered" i)
      [ 42 ]
      (delivered_payloads w i)
  done

let test_sender_delivers_own_immediately () =
  let w = make_world () in
  Stack.multicast w.stacks.(1) 7;
  (* no engine step yet: the local copy is synchronous *)
  Alcotest.(check (list int)) "local copy delivered" [ 7 ] (delivered_payloads w 1)

let test_fifo_per_sender_order () =
  let w = make_world ~ordering:Config.Fifo ~latency:(Net.Uniform (100, 10_000)) () in
  for k = 1 to 20 do
    Stack.multicast w.stacks.(0) k
  done;
  run w (Sim_time.ms 200);
  for i = 0 to 2 do
    Alcotest.(check (list int))
      (Printf.sprintf "member %d in send order" i)
      (List.init 20 (fun k -> k + 1))
      (delivered_payloads w i)
  done

let test_multiple_senders_all_delivered () =
  let w = make_world ~n:4 () in
  Array.iteri (fun i stack -> Stack.multicast stack (100 + i)) w.stacks;
  run w (Sim_time.ms 200);
  for i = 0 to 3 do
    let got = List.sort Int.compare (delivered_payloads w i) in
    Alcotest.(check (list int))
      (Printf.sprintf "member %d got all" i)
      [ 100; 101; 102; 103 ] got
  done

(* --- causal ordering under adversarial latency --------------------------- *)

(* Reactive chain: member 0 sends 0; each member k, upon delivering k-1,
   multicasts k. Causal order requires everyone to deliver 0,1,2,... in
   order, whatever the network does. *)
let causal_chain_world ~ordering ~seed ~depth =
  let w = make_world ~n:3 ~ordering ~latency:(Net.Uniform (100, 20_000)) ~seed () in
  Array.iteri
    (fun i stack ->
      Stack.set_callbacks stack
        {
          Stack.deliver =
            (fun ~sender:_ payload ->
              w.deliveries.(i) <- (0, payload) :: w.deliveries.(i);
              let next = payload + 1 in
              if next < depth && next mod 3 = i then Stack.multicast stack next);
          view_change = (fun _ -> ());
          member_failed = (fun _ -> ());
          direct = (fun ~src:_ _ -> ());
        })
    w.stacks;
  w

let chain_is_ordered payloads depth =
  (* every delivered chain value appears, in increasing order *)
  let rec ordered expected = function
    | [] -> expected = depth
    | p :: rest -> p = expected && ordered (expected + 1) rest
  in
  ordered 0 payloads

let test_causal_chain_ordered_many_seeds () =
  for seed = 1 to 30 do
    let w = causal_chain_world ~ordering:Config.Causal ~seed:(Int64.of_int seed) ~depth:9 in
    Stack.multicast w.stacks.(1) 0;
    (* value 0 started by member 1: then member 1 reacts to 0? rule: next=1, 1 mod 3 = 1 *)
    run w (Sim_time.seconds 2);
    for i = 0 to 2 do
      check_bool
        (Printf.sprintf "seed %d member %d chain in causal order" seed i)
        true
        (chain_is_ordered (delivered_payloads w i) 9)
    done
  done

let test_fifo_violates_causal_order_some_seed () =
  (* The FBCAST baseline must exhibit at least one causal violation across
     seeds — this is the difference CATOCS exists to remove. *)
  let found_violation = ref false in
  let seed = ref 1 in
  while (not !found_violation) && !seed <= 60 do
    let w =
      causal_chain_world ~ordering:Config.Fifo ~seed:(Int64.of_int !seed) ~depth:9
    in
    Stack.multicast w.stacks.(1) 0;
    run w (Sim_time.seconds 2);
    for i = 0 to 2 do
      if not (chain_is_ordered (delivered_payloads w i) 9) then
        found_violation := true
    done;
    incr seed
  done;
  check_bool "fifo eventually misorders a causal chain" true !found_violation

(* --- total order ---------------------------------------------------------- *)

let concurrent_blast w ~per_member =
  Array.iteri
    (fun i stack ->
      for k = 0 to per_member - 1 do
        Engine.at w.engine (Sim_time.ms (1 + k)) (fun () ->
            Stack.multicast stack ((i * 1000) + k))
      done)
    w.stacks

let assert_identical_sequences w n label =
  let reference = delivered_payloads w 0 in
  check_bool (label ^ ": nonempty") true (List.length reference > 0);
  for i = 1 to n - 1 do
    Alcotest.(check (list int))
      (Printf.sprintf "%s: member %d same sequence" label i)
      reference (delivered_payloads w i)
  done

let test_total_sequencer_identical_order () =
  for seed = 1 to 10 do
    let w =
      make_world ~n:4 ~ordering:Config.Total_sequencer
        ~latency:(Net.Uniform (100, 15_000)) ~seed:(Int64.of_int seed) ()
    in
    concurrent_blast w ~per_member:10;
    run w (Sim_time.seconds 3);
    check_int "all delivered" 40 (List.length (delivered_payloads w 0));
    assert_identical_sequences w 4 (Printf.sprintf "sequencer seed %d" seed)
  done

let test_total_lamport_identical_order () =
  for seed = 1 to 10 do
    let w =
      make_world ~n:4 ~ordering:Config.Total_lamport
        ~latency:(Net.Uniform (100, 15_000)) ~seed:(Int64.of_int seed) ()
    in
    concurrent_blast w ~per_member:10;
    run w (Sim_time.seconds 3);
    check_int "all delivered" 40 (List.length (delivered_payloads w 0));
    assert_identical_sequences w 4 (Printf.sprintf "lamport seed %d" seed)
  done;
  (* Gossip sent every 1 ms over a 0.5-5 ms reordering network routinely
     overtakes the gossiper's own data. A gossiped Lamport time must not
     gate release before the data the gossiper had sent is delivered here,
     or a message with a larger stamp is released ahead of an in-flight
     smaller one and members disagree on the order. *)
  let per_member = 100 in
  for seed = 1 to 3 do
    let w =
      make_world ~n:4 ~ordering:Config.Total_lamport
        ~latency:(Net.Uniform (500, 5_000)) ~gossip_period:(Sim_time.ms 1)
        ~seed:(Int64.of_int seed) ()
    in
    Array.iteri
      (fun i stack ->
        for k = 0 to per_member - 1 do
          Engine.at w.engine (Sim_time.us ((k * 250) + (i * 37))) (fun () ->
              Stack.multicast stack ((i * 1000) + k))
        done)
      w.stacks;
    run w (Sim_time.seconds 1);
    check_int "all delivered" (4 * per_member)
      (List.length (delivered_payloads w 0));
    assert_identical_sequences w 4
      (Printf.sprintf "lamport 1 ms gossip seed %d" seed)
  done

let test_total_lamport_needs_gossip_to_progress () =
  (* a single multicast is only released once every member's timestamp is
     known to be later: delivery therefore waits about a gossip period *)
  let w = make_world ~n:3 ~ordering:Config.Total_lamport ~latency:(Net.Fixed 100) () in
  Stack.multicast w.stacks.(0) 1;
  run w (Sim_time.ms 5);
  check_int "not yet delivered at remote" 0 (List.length (delivered_payloads w 1));
  run w (Sim_time.ms 200);
  check_int "delivered after gossip" 1 (List.length (delivered_payloads w 1))

(* --- stability & buffering ------------------------------------------------ *)

let test_stability_drains_buffers () =
  let w = make_world ~n:3 () in
  for k = 1 to 10 do
    Stack.multicast w.stacks.(k mod 3) k
  done;
  run w (Sim_time.ms 10);
  (* before the first gossip round nothing can be known stable remotely *)
  check_bool "buffers non-empty while unstable" true
    (Array.exists (fun s -> Stack.unstable_count s > 0) w.stacks);
  run w (Sim_time.ms 500);
  Array.iteri
    (fun i stack ->
      check_int (Printf.sprintf "member %d buffer drained" i) 0
        (Stack.unstable_count stack))
    w.stacks

let test_stability_lag_metric () =
  (* every released message contributes one send->stable lag sample to the
     registry histogram, and the lag can never be smaller than one network
     traversal *)
  let engine =
    Engine.create ~seed:1L ~net:(Net.create ~latency:(Net.Fixed 500) ()) ()
  in
  let stacks =
    Stack.create_group ~engine
      ~config:{ Config.default with Config.metrics = true }
      ~names:[ "p0"; "p1"; "p2" ] ()
  in
  for k = 1 to 10 do
    Stack.multicast stacks.(k mod 3) k
  done;
  Engine.run ~until:(Sim_time.seconds 1) engine;
  Array.iteri
    (fun i stack ->
      let lag =
        Repro_obs.Registry.histogram (Stack.registry stack)
          ~layer:Repro_obs.Event.Stability ~name:"stability_lag_us" ()
      in
      check_int
        (Printf.sprintf "member %d sampled all messages" i)
        10
        (Repro_obs.Histo.count lag);
      check_bool
        (Printf.sprintf "member %d lag exceeds one hop" i)
        true
        (Repro_obs.Histo.min lag >= 500.0))
    stacks

(* A sparse-clock PC-broadcast group of [n] members that each multicast a
   few messages over 200 ms of 5 ms gossip rounds on a reordering network.
   PC deliveries merge single diagonal cells, so gossip is the only row
   merge that can adopt a vector. Under [Encoded] every member gets its
   own endpoint and codec, returned so the caller can reach the codecs'
   decode targets. *)
let sparse_clock_run ~wire_format =
  let n = 5 in
  let config =
    { Config.default with
      Config.wire_format; causal_impl = Config.Pc_causal;
      transport = Config.Fifo_order; stability_clock = Config.Sparse_clock;
      gossip_period = Sim_time.ms 5; track_graph = false }
  in
  let net = Net.create ~latency:(Net.Uniform (500, 5_000)) () in
  let engine = Engine.create ~seed:11L ~net () in
  let pids =
    List.init n (fun i ->
        Engine.spawn engine ~name:(Printf.sprintf "p%d" i) (fun _ _ -> ()))
  in
  let view = Group.make_view ~view_id:0 pids in
  let shared = Stack.make_shared config in
  let members =
    List.map
      (fun self ->
        match wire_format with
        | Config.Structural ->
          ( Stack.create ~engine ~shared ~config ~view ~self
              ~callbacks:Stack.null_callbacks (),
            None )
        | Config.Encoded ->
          let codec = Wire_codec.create Wire_codec.int_payload in
          let framing =
            { Transport.frame = Wire_codec.encode codec;
              unframe = Wire_codec.decode codec }
          in
          let endpoint =
            Endpoint.create ~framing ~engine ~self ~mode:config.Config.transport
              ()
          in
          ( Stack.create ~endpoint ~payload_codec:Wire_codec.int_payload
              ~engine ~shared ~config ~view ~self
              ~callbacks:Stack.null_callbacks (),
            Some codec ))
      pids
  in
  List.iteri
    (fun i (stack, _) ->
      for k = 0 to 9 do
        Engine.at engine (Sim_time.ms ((k * 15) + i)) (fun () ->
            Stack.multicast stack ((10 * i) + k))
      done)
    members;
  Engine.run ~until:(Sim_time.ms 200) engine;
  (n, members)

let sparse_of stack =
  match Group_clock.sparse (Stack.stability_clock stack) with
  | Some m -> m
  | None -> Alcotest.fail "expected a sparse stability clock"

(* A gossip vector decoded by [codec] is its reused decode target for
   vectors of [n] components. *)
let decode_target codec n =
  let frame =
    Wire_codec.encode
      (Wire_codec.create Wire_codec.int_payload)
      (Wire.Proto
         (0, Wire.Gossip
               { view_id = 0; rank = 0; vc = Vector_clock.create n; lamport = 0 }))
  in
  match Wire_codec.decode codec frame with
  | Wire.Proto (_, Wire.Gossip { vc; _ }) -> vc
  | Wire.Proto _ | Wire.Direct _ -> Alcotest.fail "expected a gossip frame"

let test_encoded_gossip_not_adopted () =
  (* an encoded gossip vector is overwritten by the next decode, so no
     stability row may keep it as its shared base *)
  let n, members = sparse_clock_run ~wire_format:Config.Encoded in
  let codecs = List.filter_map snd members in
  check_int "one codec per member" n (List.length codecs);
  List.iter
    (fun c ->
      check_bool "the codec reuses its target" true
        (decode_target c n == decode_target c n))
    codecs;
  let targets = List.map (fun c -> decode_target c n) codecs in
  List.iter
    (fun (stack, _) ->
      let m = sparse_of stack in
      for r = 0 to n - 1 do
        List.iter
          (fun target ->
            check_bool
              (Printf.sprintf "p%d row %d does not alias a decode target"
                 (Stack.self stack) r)
              false
              (Sparse_matrix_clock.row_base_is m r target))
          targets
      done)
    members;
  (* the run did merge gossip: peer rows left the shared zero base *)
  check_bool "gossip merged into private rows" true
    (List.exists
       (fun (stack, _) ->
         Sparse_matrix_clock.materialized (sparse_of stack) > 0)
       members);
  List.iter
    (fun (stack, _) -> check_int "drained" 0 (Stack.unstable_count stack))
    members

let test_structural_gossip_interned () =
  (* a structural gossip vector is one immutable snapshot shared by every
     receiver: the sparse clock still adopts it by reference *)
  let _, members = sparse_clock_run ~wire_format:Config.Structural in
  check_bool "gossip snapshots interned" true
    (List.exists
       (fun (stack, _) ->
         Sparse_matrix_clock.interned (sparse_of stack) > 0)
       members)

(* A 5-member PC-broadcast run with a crash at 40 ms and a join at 150 ms,
   every live member multicasting every 4 ms: the crash flush re-sends
   unstable records and the joiner's fresh links retransmit them on pong,
   so under [Encoded] decoded records are re-encoded. Returns every
   distinct [vt] that crossed the wire in a record (sender stamps, and
   under [Encoded] codec stamps), the stacks, and the flush and pong
   retransmission counts. [probe] runs every 10 ms on the stamps so far. *)
let zero_stamp_run ~wire_format ~probe =
  let config =
    { Config.default with
      Config.wire_format; causal_impl = Config.Pc_causal;
      transport = Config.Fifo_order; stability_clock = Config.Sparse_clock;
      gossip_period = Sim_time.ms 5; track_graph = false }
  in
  let stamps = ref [] in
  let rec note (d : int Wire.data) =
    (match d.Wire.meta with
     | Wire.Pc_meta _ ->
       if not (List.exists (fun v -> v == d.Wire.vt) !stamps) then
         stamps := d.Wire.vt :: !stamps
     | Wire.Fifo_meta | Wire.Causal_meta | Wire.Seq_meta | Wire.Lamport_meta _
       ->
       Alcotest.fail "a non-PC record in a PC run");
    List.iter note d.Wire.piggyback
  in
  let collect (w : int Wire.t) =
    match w with
    | Wire.Proto (_, Wire.Data d) -> note d
    | Wire.Proto (_, Wire.Flush { unstable; _ }) -> List.iter note unstable
    | Wire.Proto _ | Wire.Direct _ -> ()
  in
  let net = Net.create ~latency:(Net.Uniform (500, 5_000)) () in
  let engine = Engine.create ~seed:5L ~net () in
  (* structural packets carry the records themselves: wrap a process's
     installed handler to see every packet it receives *)
  let tap self =
    let handle = Engine.handler engine self in
    Engine.set_handler engine self (fun self env ->
        (match env.Engine.payload with
         | Transport.Seg { payload = w; _ } | Transport.Raw w -> collect w
         | Transport.Ack _ | Transport.Enc _ -> ());
        handle self env)
  in
  let endpoint self =
    match wire_format with
    | Config.Structural -> None
    | Config.Encoded ->
      let codec = Wire_codec.create Wire_codec.int_payload in
      let framing =
        { Transport.frame =
            (fun w ->
              collect w;
              Wire_codec.encode codec w);
          unframe =
            (fun f ->
              let w = Wire_codec.decode codec f in
              collect w;
              w) }
      in
      Some
        (Endpoint.create ~framing ~engine ~self ~mode:config.Config.transport
           ())
  in
  let pids =
    List.init 5 (fun i ->
        Engine.spawn engine ~name:(Printf.sprintf "p%d" i) (fun _ _ -> ()))
  in
  let view = Group.make_view ~view_id:0 pids in
  let shared = Stack.make_shared config in
  let stacks =
    ref
      (List.map
         (fun self ->
           Stack.create ?endpoint:(endpoint self)
             ~payload_codec:Wire_codec.int_payload ~engine ~shared ~config
             ~view ~self ~callbacks:Stack.null_callbacks ())
         pids)
  in
  List.iter tap pids;
  let multicasts stack ~from =
    for k = 0 to 69 do
      let at = Sim_time.ms ((4 * k) + (Stack.self stack mod 4)) in
      if Sim_time.compare at from >= 0 then
        Engine.at engine ~owner:(Stack.self stack) at (fun () ->
            if not (Stack.is_ejected stack) then Stack.multicast stack k)
    done
  in
  List.iter (multicasts ~from:Sim_time.zero) !stacks;
  Engine.at engine (Sim_time.ms 40) (fun () ->
      Engine.crash engine (List.nth pids 4));
  Engine.at engine (Sim_time.ms 150) (fun () ->
      let self = Engine.spawn engine ~name:"joiner" (fun _ _ -> ()) in
      let joiner =
        Stack.join ?endpoint:(endpoint self)
          ~payload_codec:Wire_codec.int_payload ~engine ~shared ~config ~self
          ~contact:(List.hd pids) ~callbacks:Stack.null_callbacks ()
      in
      tap self;
      stacks := !stacks @ [ joiner ];
      multicasts joiner ~from:(Sim_time.ms 151));
  let live () =
    List.filter
      (fun st ->
        Engine.is_alive engine (Stack.self st) && not (Stack.is_ejected st))
      !stacks
  in
  let _cancel =
    Engine.every engine ~period:(Sim_time.ms 10) (fun () ->
        probe (live ()) !stamps)
  in
  Engine.run ~until:(Sim_time.ms 600) engine;
  let total f = List.fold_left (fun acc st -> acc + f st) 0 !stacks in
  let flushes =
    total (fun st -> (Stack.metrics st).Repro_catocs.Metrics.flush_messages)
  in
  let retransmits =
    total (fun st ->
        match Stack.pc_stats st with
        | Some s -> s.Repro_catocs.Pc_causal.barrier_retransmits
        | None -> 0)
  in
  (!stamps, live (), flushes, retransmits)

(* no live member's sparse stability row holds a stamp as its shared base *)
let check_rows_own_no_stamp stacks stamps =
  List.iter
    (fun stack ->
      let m = sparse_of stack in
      for r = 0 to Group.size (Stack.view stack) - 1 do
        List.iter
          (fun v ->
            if Sparse_matrix_clock.row_base_is m r v then
              Alcotest.failf "p%d row %d adopted a PC stamp" (Stack.self stack)
                r)
          stamps
      done)
    stacks

let test_pc_zero_stamps_unwritten wire_format () =
  let stamps, live, flushes, retransmits =
    zero_stamp_run ~wire_format ~probe:check_rows_own_no_stamp
  in
  check_bool "the crash ran a flush" true (flushes > 0);
  check_bool "the join retransmitted on pong" true (retransmits > 0);
  check_int "four originals and the joiner live" 5 (List.length live);
  check_bool "records carry shared stamps" true (List.length stamps > 1);
  List.iter
    (fun v ->
      check_bool "every stamp reads all zero" true
        (List.for_all (Int.equal 0) (Vector_clock.to_list v)))
    stamps;
  check_rows_own_no_stamp live stamps

let test_metrics_header_overhead () =
  let causal = make_world ~n:4 ~ordering:Config.Causal () in
  let fifo = make_world ~n:4 ~ordering:Config.Fifo () in
  Stack.multicast causal.stacks.(0) 1;
  Stack.multicast fifo.stacks.(0) 1;
  run causal (Sim_time.ms 50);
  run fifo (Sim_time.ms 50);
  let causal_hdr = (Stack.metrics causal.stacks.(0)).Repro_catocs.Metrics.header_bytes in
  let fifo_hdr = (Stack.metrics fifo.stacks.(0)).Repro_catocs.Metrics.header_bytes in
  check_bool "causal header larger than fifo" true (causal_hdr > fifo_hdr);
  (* causal: (8 + 4*4) * 3 recipients *)
  check_int "causal header exact" ((8 + 16) * 3) causal_hdr;
  check_int "fifo header exact" (8 * 3) fifo_hdr

(* --- view change ----------------------------------------------------------- *)

let test_view_change_on_crash () =
  let w = make_world ~n:4 () in
  Engine.at w.engine (Sim_time.ms 10) (fun () ->
      Engine.crash w.engine (Stack.self w.stacks.(3)));
  run w (Sim_time.seconds 1);
  for i = 0 to 2 do
    let v = Stack.view w.stacks.(i) in
    check_int (Printf.sprintf "member %d new view size" i) 3 (Group.size v);
    check_int (Printf.sprintf "member %d view id" i) 1 v.Group.view_id;
    check_int
      (Printf.sprintf "member %d saw failure notification" i)
      1
      (List.length w.failures_seen.(i));
    check_int (Printf.sprintf "member %d saw view change" i) 1
      (List.length w.views_seen.(i))
  done

(* Under abcast over [Reliable], a survivor stops resending to a crashed
   member within one rto of the install that removes it, instead of
   resending its whole window every rto until [max_retries] runs out. *)
let test_no_resend_to_removed_member () =
  let rto = Sim_time.ms 10 in
  let net = Net.create ~latency:(Net.Uniform (500, 3_000)) () in
  let engine = Engine.create ~seed:3L ~net () in
  let log = Repro_obs.Log.create () in
  let config =
    { Config.default with
      Config.ordering = Config.Total_sequencer;
      transport = Config.Reliable { rto; max_retries = 400 } }
  in
  let stacks =
    Stack.create_group ~obs:log ~engine ~config
      ~names:[ "p0"; "p1"; "p2"; "p3" ] ()
  in
  let crashed = Stack.self stacks.(3) in
  let installed = Array.make 3 max_int in
  Array.iteri
    (fun i stack ->
      if i < 3 then
        Stack.set_callbacks stack
          { Stack.null_callbacks with
            Stack.view_change = (fun _ -> installed.(i) <- Engine.now engine) })
    stacks;
  for k = 0 to 19 do
    Engine.at engine (Sim_time.ms k) (fun () ->
        Stack.multicast stacks.(k mod 4) k)
  done;
  Engine.at engine (Sim_time.ms 5) (fun () -> Engine.crash engine crashed);
  Engine.run ~until:(Sim_time.seconds 1) engine;
  let to_crashed ~after i =
    Repro_obs.Log.fold log ~init:0 ~f:(fun n (r : Repro_obs.Event.record) ->
        match r.event with
        | Repro_obs.Event.Retransmit { pid; dst; _ }
          when pid = Stack.self stacks.(i) && dst = crashed && r.at > after ->
          n + 1
        | _ -> n)
  in
  for i = 0 to 2 do
    check_bool (Printf.sprintf "member %d installed the view" i) true
      (installed.(i) < max_int);
    check_bool (Printf.sprintf "member %d resent to the crashed one" i) true
      (to_crashed ~after:0 i > 0);
    check_int (Printf.sprintf "member %d: none an rto after the install" i) 0
      (to_crashed ~after:(installed.(i) + rto) i)
  done

let test_messages_before_crash_reach_all_survivors () =
  let w = make_world ~n:4 ~latency:(Net.Uniform (100, 5_000)) () in
  for k = 1 to 5 do
    Stack.multicast w.stacks.(2) k
  done;
  Engine.at w.engine (Sim_time.ms 2) (fun () ->
      Engine.crash w.engine (Stack.self w.stacks.(3)));
  run w (Sim_time.seconds 1);
  for i = 0 to 2 do
    Alcotest.(check (list int))
      (Printf.sprintf "survivor %d has all pre-crash messages" i)
      [ 1; 2; 3; 4; 5 ]
      (delivered_payloads w i)
  done

let test_flush_resupplies_partial_multicast () =
  (* sender's multicast reached only member 1; when the sender crashes, the
     flush must propagate it to everyone (atomic delivery). *)
  let w = make_world ~n:4 ~latency:(Net.Fixed 500) () in
  Stack.inject_partial_multicast w.stacks.(0) 99
    ~recipients:[ Stack.self w.stacks.(1) ];
  Engine.at w.engine (Sim_time.ms 5) (fun () ->
      Engine.crash w.engine (Stack.self w.stacks.(0)));
  run w (Sim_time.seconds 1);
  for i = 1 to 3 do
    Alcotest.(check (list int))
      (Printf.sprintf "survivor %d got re-supplied message" i)
      [ 99 ]
      (delivered_payloads w i)
  done

let test_duplicate_in_total_order_window () =
  (* Member 1's multicast reaches member 2 but not sequencer 0, so both
     deliver it causally and wait for an order that never comes. When 0
     crashes, the flush re-supplies it to members already holding it in
     that causal-but-unordered window. The copy must count as seen: it is
     not delivered twice, not queued again (it would block there until the
     install dropped it), and member 1's next multicast in the new view
     still reaches every survivor after it. *)
  let w =
    make_world ~n:4 ~ordering:Config.Total_sequencer ~latency:(Net.Fixed 500)
      ()
  in
  Stack.inject_partial_multicast w.stacks.(1) 99
    ~recipients:[ Stack.self w.stacks.(2) ];
  Engine.at w.engine (Sim_time.ms 4) (fun () ->
      for i = 1 to 2 do
        Alcotest.(check (list int))
          (Printf.sprintf "member %d waits for an order" i)
          [] (delivered_payloads w i)
      done;
      Engine.crash w.engine (Stack.self w.stacks.(0)));
  Engine.at w.engine (Sim_time.ms 500) (fun () ->
      Stack.multicast w.stacks.(1) 100);
  run w (Sim_time.seconds 1);
  for i = 1 to 3 do
    check_int (Printf.sprintf "member %d view without the sequencer" i) 3
      (Group.size (Stack.view w.stacks.(i)));
    check_int (Printf.sprintf "member %d dropped nothing at the install" i) 0
      (Stack.metrics w.stacks.(i)).Repro_catocs.Metrics.dropped_at_view_change;
    Alcotest.(check (list int))
      (Printf.sprintf "member %d delivers once, then the next multicast" i)
      [ 99; 100 ]
      (delivered_payloads w i)
  done

let test_durability_gap_local_only_multicast () =
  (* the paper's Section 2 special case: sender delivers locally, crashes
     before any network send; survivors never see the message *)
  let w = make_world ~n:3 ~latency:(Net.Fixed 500) () in
  Stack.inject_partial_multicast w.stacks.(0) 77 ~recipients:[];
  Alcotest.(check (list int)) "sender applied locally" [ 77 ] (delivered_payloads w 0);
  Engine.at w.engine (Sim_time.ms 1) (fun () ->
      Engine.crash w.engine (Stack.self w.stacks.(0)));
  run w (Sim_time.seconds 1);
  for i = 1 to 2 do
    check_int (Printf.sprintf "survivor %d diverged" i) 0
      (List.length (delivered_payloads w i))
  done

let test_send_suppression_during_flush () =
  let w = make_world ~n:3 ~latency:(Net.Fixed 2_000) () in
  Engine.at w.engine (Sim_time.ms 10) (fun () ->
      Engine.crash w.engine (Stack.self w.stacks.(2)));
  (* detection at 10ms+50ms; multicast during the flush at 61ms *)
  Engine.at w.engine (Sim_time.ms 61) (fun () ->
      check_bool "flushing at send time" true (Stack.is_flushing w.stacks.(0));
      Stack.multicast w.stacks.(0) 5);
  run w (Sim_time.seconds 1);
  Alcotest.(check (list int)) "suppressed message delivered after view change"
    [ 5 ]
    (delivered_payloads w 1);
  check_bool "suppression recorded" true
    ((Stack.metrics w.stacks.(0)).Repro_catocs.Metrics.suppressed_us > 0)

let test_two_sequential_crashes () =
  let w = make_world ~n:5 () in
  Engine.at w.engine (Sim_time.ms 10) (fun () ->
      Engine.crash w.engine (Stack.self w.stacks.(4)));
  Engine.at w.engine (Sim_time.ms 500) (fun () ->
      Engine.crash w.engine (Stack.self w.stacks.(3)));
  Engine.at w.engine (Sim_time.ms 900) (fun () -> Stack.multicast w.stacks.(0) 1);
  run w (Sim_time.seconds 2);
  for i = 0 to 2 do
    check_int (Printf.sprintf "member %d final view size" i) 3
      (Group.size (Stack.view w.stacks.(i)));
    Alcotest.(check (list int))
      (Printf.sprintf "member %d delivery works in final view" i)
      [ 1 ]
      (delivered_payloads w i)
  done

let test_sequencer_failover () =
  (* rank 0 is the sequencer; crash it and check total order still works *)
  let w = make_world ~n:4 ~ordering:Config.Total_sequencer () in
  Engine.at w.engine (Sim_time.ms 10) (fun () ->
      Engine.crash w.engine (Stack.self w.stacks.(0)));
  Engine.at w.engine (Sim_time.ms 500) (fun () ->
      for i = 1 to 3 do
        Stack.multicast w.stacks.(i) (i * 10)
      done);
  run w (Sim_time.seconds 2);
  let reference = delivered_payloads w 1 in
  check_int "three messages" 3 (List.length reference);
  for i = 2 to 3 do
    Alcotest.(check (list int))
      (Printf.sprintf "member %d same total order after failover" i)
      reference (delivered_payloads w i)
  done

(* --- join / state transfer -------------------------------------------------- *)

let join_new_member w ?(callbacks = Stack.null_callbacks) name =
  let pid = Engine.spawn w.engine ~name (fun _ _ -> ()) in
  let existing = w.stacks.(0) in
  (* recover the shared context through a fresh group-side join API *)
  Stack.join ~engine:w.engine ~shared:(Stack.shared_of existing)
    ~config:(Stack.config_of existing) ~self:pid
    ~contact:(Stack.self w.stacks.(1)) ~callbacks ()

let test_join_expands_view () =
  let w = make_world ~n:3 () in
  let joined_deliveries = ref [] in
  let joiner =
    ref None
  in
  Engine.at w.engine (Sim_time.ms 50) (fun () ->
      joiner :=
        Some
          (join_new_member w "newbie"
             ~callbacks:
               { Stack.null_callbacks with
                 Stack.deliver =
                   (fun ~sender:_ p -> joined_deliveries := p :: !joined_deliveries) }));
  run w (Sim_time.ms 400);
  (match !joiner with
   | Some stack ->
     check_int "joiner sees 4-member view" 4 (Group.size (Stack.view stack));
     check_bool "joiner done joining" false (Stack.is_flushing stack)
   | None -> Alcotest.fail "joiner not created");
  for i = 0 to 2 do
    check_int
      (Printf.sprintf "member %d sees 4-member view" i)
      4
      (Group.size (Stack.view w.stacks.(i)))
  done;
  (* traffic flows in both directions in the new view *)
  Engine.at w.engine (Sim_time.ms 450) (fun () -> Stack.multicast w.stacks.(0) 7);
  (match !joiner with
   | Some stack ->
     Engine.at w.engine (Sim_time.ms 460) (fun () -> Stack.multicast stack 8)
   | None -> ());
  run w (Sim_time.ms 700);
  Alcotest.(check (list int)) "joiner delivered both" [ 7; 8 ]
    (List.rev !joined_deliveries);
  check_bool "old member delivered joiner's multicast" true
    (List.mem 8 (delivered_payloads w 0))

let test_join_state_transfer () =
  let w = make_world ~n:3 () in
  (* members accumulate a sum of delivered payloads as their state *)
  let sums = Array.make 3 0 in
  Array.iteri
    (fun i stack ->
      Stack.set_callbacks stack
        { Stack.null_callbacks with
          Stack.deliver = (fun ~sender:_ p -> sums.(i) <- sums.(i) + p) };
      Stack.set_state_handlers stack
        ~get:(fun () -> string_of_int sums.(i))
        ~set:(fun s -> sums.(i) <- int_of_string s))
    w.stacks;
  for k = 1 to 5 do
    Engine.at w.engine (Sim_time.ms k) (fun () -> Stack.multicast w.stacks.(0) k)
  done;
  let joiner_sum = ref (-1) in
  Engine.at w.engine (Sim_time.ms 100) (fun () ->
      let stack = join_new_member w "newbie" in
      Stack.set_state_handlers stack
        ~get:(fun () -> string_of_int !joiner_sum)
        ~set:(fun s -> joiner_sum := int_of_string s));
  run w (Sim_time.ms 500);
  check_int "state transferred" 15 !joiner_sum

let test_join_during_flush_is_queued () =
  (* a crash flush is in progress when the join request lands: the joiner is
     admitted in the following round *)
  let w = make_world ~n:4 () in
  Engine.at w.engine (Sim_time.ms 10) (fun () ->
      Engine.crash w.engine (Stack.self w.stacks.(3)));
  let joiner = ref None in
  (* detection at 60ms; flush in progress shortly after *)
  Engine.at w.engine (Sim_time.ms 61) (fun () ->
      joiner := Some (join_new_member w "newbie"));
  run w (Sim_time.seconds 2);
  (match !joiner with
   | Some stack ->
     check_int "joiner in final view" 4 (Group.size (Stack.view stack))
   | None -> Alcotest.fail "joiner not created");
  check_int "old member agrees" 4 (Group.size (Stack.view w.stacks.(0)))

let test_join_survives_flush_restart () =
  (* the join round is in progress when a crash is detected: the restarted
     round must keep admitting the joiner rather than leave it to its 500ms
     retry *)
  let w = make_world ~n:5 () in
  let installs = ref [] in
  Stack.set_callbacks w.stacks.(0)
    { Stack.null_callbacks with
      Stack.view_change =
        (fun v -> installs := (Engine.now w.engine, v) :: !installs) };
  Engine.at w.engine (Sim_time.ms 40) (fun () ->
      Engine.crash w.engine (Stack.self w.stacks.(4)));
  let joiner = ref None in
  (* detection at 90ms, while the join round started at 80ms still runs *)
  Engine.at w.engine (Sim_time.ms 80) (fun () ->
      joiner := Some (join_new_member w "newbie"));
  run w (Sim_time.seconds 1);
  let joiner =
    match !joiner with
    | Some stack -> stack
    | None -> Alcotest.fail "joiner not created"
  in
  match List.rev !installs with
  | (at, view) :: _ ->
    check_bool "crashed member gone" false
      (Group.mem view (Stack.self w.stacks.(4)));
    check_bool "joiner in the first view after the crash" true
      (Group.mem view (Stack.self joiner));
    check_bool "installed within the restarted round" true
      (at < Sim_time.ms 150);
    check_int "joiner installed that view" view.Group.view_id
      (Stack.view joiner).Group.view_id
  | [] -> Alcotest.fail "no view installed"

let test_rejoin_after_crash () =
  let w = make_world ~n:3 () in
  let crashed = Stack.self w.stacks.(2) in
  Engine.at w.engine (Sim_time.ms 10) (fun () -> Engine.crash w.engine crashed);
  run w (Sim_time.ms 300);
  check_int "view shrank" 2 (Group.size (Stack.view w.stacks.(0)));
  (* recover and rejoin with a fresh stack under the SAME pid *)
  let rejoined = ref None in
  Engine.at w.engine (Sim_time.ms 310) (fun () ->
      Engine.recover w.engine crashed;
      Stack.shutdown w.stacks.(2);
      let existing = w.stacks.(0) in
      rejoined :=
        Some
          (Stack.join ~engine:w.engine ~shared:(Stack.shared_of existing)
             ~config:(Stack.config_of existing) ~self:crashed
             ~contact:(Stack.self w.stacks.(1)) ~callbacks:Stack.null_callbacks
             ()));
  run w (Sim_time.ms 900);
  check_int "view back to 3" 3 (Group.size (Stack.view w.stacks.(0)));
  (match !rejoined with
   | Some stack ->
     check_int "rejoined member installed" 3 (Group.size (Stack.view stack));
     Engine.at w.engine (Sim_time.ms 950) (fun () -> Stack.multicast stack 42);
     run w (Sim_time.ms 1200);
     check_bool "delivery from rejoined member" true
       (List.mem 42 (delivered_payloads w 0))
   | None -> Alcotest.fail "rejoin failed")

(* p3 crashes, recovers and re-joins under its old pid through p1 (not the
   join coordinator p0); then p2 crashes. Returns the world, p3's abandoned
   pre-crash stack and its re-joined one, at 1.5 s. *)
let rejoin_then_crash () =
  let w = make_world ~n:4 () in
  let stale = w.stacks.(3) in
  let pid = Stack.self stale in
  Engine.at w.engine (Sim_time.ms 10) (fun () -> Engine.crash w.engine pid);
  let rejoined = ref None in
  Engine.at w.engine (Sim_time.ms 310) (fun () ->
      Engine.recover w.engine pid;
      Stack.shutdown stale;
      rejoined :=
        Some
          (Stack.join ~engine:w.engine ~shared:(Stack.shared_of w.stacks.(0))
             ~config:(Stack.config_of w.stacks.(0)) ~self:pid
             ~contact:(Stack.self w.stacks.(1)) ~callbacks:Stack.null_callbacks
             ()));
  Engine.at w.engine (Sim_time.ms 1000) (fun () ->
      Engine.crash w.engine (Stack.self w.stacks.(2)));
  run w (Sim_time.ms 1500);
  match !rejoined with
  | Some stack -> (w, stale, stack)
  | None -> Alcotest.fail "rejoin never started"

(* Every member, not only the join coordinator, must forget the re-joined
   pid's failure: otherwise the next failure's survivor sets disagree, the
   flush never completes and every member ejects itself. *)
let test_rejoined_pid_survives_next_failure () =
  let w, _, rejoined = rejoin_then_crash () in
  let expected =
    List.map (fun i -> Stack.self w.stacks.(i)) [ 0; 1; 3 ]
  in
  List.iter
    (fun (name, stack) ->
      check_bool (name ^ " not ejected") false (Stack.is_ejected stack);
      check_bool (name ^ " not flushing") false (Stack.is_flushing stack);
      Alcotest.(check (list int)) (name ^ " view without p2") expected
        (Array.to_list (Stack.view stack).Group.members))
    [ ("p0", w.stacks.(0)); ("p1", w.stacks.(1)); ("p3 re-joined", rejoined) ]

(* A shut-down stack is inert: its failure observer must not start a flush
   when a peer crashes after its process re-joined with a fresh stack. *)
let test_shutdown_stack_inert () =
  let _, stale, _ = rejoin_then_crash () in
  check_int "stale stack sent no flush traffic" 0
    (Stack.metrics stale).Repro_catocs.Metrics.flush_messages

(* A joining stack shut down before it is admitted stops asking: its
   contact never answers, so only the retry loop (every 500 ms) would keep
   requests coming after the shutdown at 1 s. *)
let test_shutdown_joiner_stops_requests () =
  let net = Net.create ~latency:(Net.Fixed 1_000) () in
  let engine = Engine.create ~net () in
  let requests = ref 0 in
  let contact = Engine.spawn engine ~name:"silent" (fun _ _ -> incr requests) in
  let self = Engine.spawn engine ~name:"joiner" (fun _ _ -> ()) in
  let config = Config.default in
  let joiner =
    Stack.join ~engine ~shared:(Stack.make_shared config) ~config ~self
      ~contact ~callbacks:Stack.null_callbacks ()
  in
  let at_shutdown = ref 0 in
  Engine.at engine (Sim_time.seconds 1) (fun () -> Stack.shutdown joiner);
  Engine.at engine (Sim_time.ms 1_100) (fun () -> at_shutdown := !requests);
  Engine.run ~until:(Sim_time.seconds 4) engine;
  check_bool "asked while joining" true (!at_shutdown > 0);
  check_int "no request after shutdown" !at_shutdown !requests

(* --- piggybacked causal history (Section 3.4 footnote 4) --------------------- *)

let test_piggyback_fills_partial_multicast_gap () =
  (* message 1 reaches only member 1; member 0's next multicast carries it
     as unstable history, so member 2 recovers it without retransmission *)
  let net = Net.create ~latency:(Net.Fixed 1_000) () in
  let engine = Engine.create ~net () in
  let config = { Config.default with Config.piggyback_history = true } in
  let stacks =
    Stack.create_group ~engine ~config ~names:[ "a"; "b"; "c" ] ()
  in
  let got = ref [] in
  Stack.set_callbacks stacks.(2)
    { Stack.null_callbacks with
      Stack.deliver = (fun ~sender:_ v -> got := v :: !got) };
  Stack.inject_partial_multicast stacks.(0) 1 ~recipients:[ Stack.self stacks.(1) ];
  Engine.at engine (Sim_time.ms 5) (fun () -> Stack.multicast stacks.(0) 2);
  Engine.run ~until:(Sim_time.ms 50) engine;
  Alcotest.(check (list int)) "gap filled from piggyback, in causal order"
    [ 1; 2 ]
    (List.rev !got)

let test_transport_gives_up_after_max_retries () =
  let net = Net.create ~latency:(Net.Fixed 100) ~drop_probability:1.0 () in
  let engine = Engine.create ~net () in
  let log = Repro_obs.Log.create () in
  let a = Engine.spawn engine ~name:"a" (fun _ _ -> ()) in
  let b = Engine.spawn engine ~name:"b" (fun _ _ -> ()) in
  let ta =
    Transport.create ~obs:log ~engine ~self:a
      ~mode:(Config.Reliable { rto = Sim_time.ms 5; max_retries = 4 })
      ~on_deliver:(fun ~src:_ _ -> ()) ()
  in
  Engine.set_handler engine a (fun _ env -> Transport.handle ta env);
  ignore b;
  Transport.send ta ~dst:b 1;
  Engine.run ~until:(Sim_time.seconds 2) engine;
  check_int "bounded retransmissions" 4 (Transport.retransmissions ta);
  (* attempt numbers come from the channel's tick count, one per rto *)
  let resends =
    Repro_obs.Log.fold log ~init:[] ~f:(fun acc (r : Repro_obs.Event.record) ->
        match r.event with
        | Repro_obs.Event.Retransmit { seq; attempt; _ } -> (seq, attempt) :: acc
        | _ -> acc)
  in
  Alcotest.(check (list (pair int int))) "seq 0, attempts 1..4"
    [ (0, 1); (0, 2); (0, 3); (0, 4) ]
    (List.rev resends)

(* [give_up] empties the window at once: on a link that drops everything
   the resends stop, and the next send is numbered after the given-up
   segments. *)
let test_transport_give_up () =
  let net = Net.create ~latency:(Net.Fixed 100) ~drop_probability:1.0 () in
  let engine = Engine.create ~net () in
  let log = Repro_obs.Log.create () in
  let a = Engine.spawn engine ~name:"a" (fun _ _ -> ()) in
  let b = Engine.spawn engine ~name:"b" (fun _ _ -> ()) in
  let ta =
    Transport.create ~obs:log ~engine ~self:a
      ~mode:(Config.Reliable { rto = Sim_time.ms 5; max_retries = 400 })
      ~on_deliver:(fun ~src:_ _ -> ()) ()
  in
  Engine.set_handler engine a (fun _ env -> Transport.handle ta env);
  Transport.send ta ~dst:b 1;
  Transport.send ta ~dst:b 2;
  Engine.run ~until:(Sim_time.ms 22) engine;
  check_int "two segments, four ticks" 8 (Transport.retransmissions ta);
  Transport.give_up ta ~dst:b;
  Transport.give_up ta ~dst:(b + 1);  (* never sent to: a no-op *)
  Engine.run ~until:(Sim_time.ms 200) engine;
  check_int "no resend after the give-up" 8 (Transport.retransmissions ta);
  Engine.at engine (Sim_time.ms 200) (fun () -> Transport.send ta ~dst:b 3);
  Engine.run ~until:(Sim_time.ms 211) engine;
  check_int "the new segment alone is resent" 10 (Transport.retransmissions ta);
  let last_seq =
    Repro_obs.Log.fold log ~init:(-1) ~f:(fun acc (r : Repro_obs.Event.record) ->
        match r.event with
        | Repro_obs.Event.Retransmit { seq; _ } -> seq
        | _ -> acc)
  in
  check_int "numbered after the given-up segments" 2 last_seq

(* --- heartbeat failure detection ---------------------------------------------- *)

let make_heartbeat_world ?(n = 3) ?(latency = Net.Uniform (500, 3_000)) ?(seed = 1L) () =
  let net = Net.create ~latency () in
  let engine = Engine.create ~seed ~net () in
  let config =
    { Config.default with
      Config.failure_detection =
        Config.Heartbeat { period = Sim_time.ms 10; timeout = Sim_time.ms 60 } }
  in
  let stacks =
    Stack.create_group ~engine ~config
      ~names:(List.init n (fun i -> Printf.sprintf "p%d" i)) ()
  in
  (engine, stacks, net)

let test_heartbeat_detects_crash () =
  (* no oracle involved: silence alone removes the member *)
  let engine, stacks, _ = make_heartbeat_world () in
  let delivered = ref [] in
  Stack.set_callbacks stacks.(1)
    { Stack.null_callbacks with
      Stack.deliver = (fun ~sender:_ v -> delivered := v :: !delivered) };
  Engine.at engine (Sim_time.ms 30) (fun () ->
      Engine.crash engine (Stack.self stacks.(2)));
  Engine.at engine (Sim_time.ms 400) (fun () -> Stack.multicast stacks.(0) 9);
  Engine.run ~until:(Sim_time.ms 700) engine;
  check_int "survivor view size" 2 (Group.size (Stack.view stacks.(0)));
  check_int "views agree" 2 (Group.size (Stack.view stacks.(1)));
  Alcotest.(check (list int)) "delivery works after detection" [ 9 ] !delivered

let test_heartbeat_partition_split_and_rejoin () =
  let engine, stacks, net = make_heartbeat_world () in
  let isolated = Stack.self stacks.(2) in
  let others = [ Stack.self stacks.(0); Stack.self stacks.(1) ] in
  Engine.at engine (Sim_time.ms 50) (fun () -> Net.partition net [ isolated ] others);
  Engine.run ~until:(Sim_time.ms 400) engine;
  (* both sides of the partition formed their own views *)
  check_int "majority side trimmed" 2 (Group.size (Stack.view stacks.(0)));
  check_int "isolated side went solo" 1 (Group.size (Stack.view stacks.(2)));
  (* heal and re-join *)
  Net.heal net;
  let rejoined = ref None in
  Engine.at engine (Sim_time.ms 410) (fun () ->
      Stack.shutdown stacks.(2);
      rejoined :=
        Some
          (Stack.join ~engine ~shared:(Stack.shared_of stacks.(0))
             ~config:(Stack.config_of stacks.(0)) ~self:isolated
             ~contact:(Stack.self stacks.(0)) ~callbacks:Stack.null_callbacks ()));
  Engine.run ~until:(Sim_time.seconds 2) engine;
  check_int "reunified view" 3 (Group.size (Stack.view stacks.(0)));
  (match !rejoined with
   | Some stack -> check_int "rejoined member view" 3 (Group.size (Stack.view stack))
   | None -> Alcotest.fail "no rejoin")

let test_partition_heal_traffic_regression () =
  (* Regression: traffic multicast while the network is split must still reach
     every member of the healed group, and a member that re-joins after the
     heal must see everything multicast from its join onwards. Exercises the
     flush contribution of messages that were blocked in delivery queues when
     the partition view change started. *)
  let engine, stacks, net = make_heartbeat_world () in
  let n = Array.length stacks in
  let deliveries = Array.make n [] in
  Array.iteri
    (fun i stack ->
      Stack.set_callbacks stack
        { Stack.null_callbacks with
          Stack.deliver =
            (fun ~sender:_ v -> deliveries.(i) <- v :: deliveries.(i)) })
    stacks;
  let isolated = Stack.self stacks.(2) in
  let others = [ Stack.self stacks.(0); Stack.self stacks.(1) ] in
  Engine.at engine (Sim_time.ms 50) (fun () ->
      Net.partition net [ isolated ] others);
  (* traffic while split: the majority side keeps multicasting *)
  Engine.at engine (Sim_time.ms 200) (fun () -> Stack.multicast stacks.(0) 7);
  Engine.at engine (Sim_time.ms 250) (fun () -> Stack.multicast stacks.(1) 8);
  Engine.run ~until:(Sim_time.ms 400) engine;
  check_int "majority side trimmed" 2 (Group.size (Stack.view stacks.(0)));
  check_int "isolated side went solo" 1 (Group.size (Stack.view stacks.(2)));
  (* heal; the isolated member re-joins with fresh state *)
  Net.heal net;
  let rejoined = ref None in
  let rejoined_deliveries = ref [] in
  Engine.at engine (Sim_time.ms 410) (fun () ->
      Stack.shutdown stacks.(2);
      rejoined :=
        Some
          (Stack.join ~engine ~shared:(Stack.shared_of stacks.(0))
             ~config:(Stack.config_of stacks.(0)) ~self:isolated
             ~contact:(Stack.self stacks.(0))
             ~callbacks:
               { Stack.null_callbacks with
                 Stack.deliver =
                   (fun ~sender:_ v ->
                     rejoined_deliveries := v :: !rejoined_deliveries) }
             ()));
  (* post-heal traffic must reach all three members, including the joiner *)
  Engine.at engine (Sim_time.seconds 1) (fun () -> Stack.multicast stacks.(0) 10);
  Engine.at engine (Sim_time.ms 1_050) (fun () -> Stack.multicast stacks.(1) 11);
  Engine.run ~until:(Sim_time.seconds 2) engine;
  check_int "reunified view p0" 3 (Group.size (Stack.view stacks.(0)));
  check_int "reunified view p1" 3 (Group.size (Stack.view stacks.(1)));
  (match !rejoined with
   | Some stack ->
     check_int "rejoined member view" 3 (Group.size (Stack.view stack))
   | None -> Alcotest.fail "no rejoin");
  for i = 0 to n - 2 do
    Alcotest.(check (list int))
      (Printf.sprintf "p%d saw split-era and post-heal traffic" i)
      [ 7; 8; 10; 11 ]
      (List.rev deliveries.(i))
  done;
  Alcotest.(check (list int))
    "joiner saw all post-join traffic" [ 10; 11 ]
    (List.rev !rejoined_deliveries)

(* --- multiple groups per process --------------------------------------------- *)

let test_two_groups_one_process () =
  (* one process is a member of two independent causal groups through a
     single endpoint; traffic in each group is isolated *)
  let net = Net.create ~latency:(Net.Fixed 1_000) () in
  let engine = Engine.create ~net () in
  let config = Config.default in
  let a = Engine.spawn engine ~name:"a" (fun _ _ -> ()) in
  let b = Engine.spawn engine ~name:"b" (fun _ _ -> ()) in
  let c = Engine.spawn engine ~name:"c" (fun _ _ -> ()) in
  let module Endpoint = Repro_catocs.Endpoint in
  let endpoint_a = Endpoint.create ~engine ~self:a ~mode:Config.Bare () in
  let got_g1 = ref [] and got_g2 = ref [] in
  let make_member ?endpoint shared view self log =
    Stack.create ?endpoint ~engine ~shared ~config ~view ~self
      ~callbacks:
        { Stack.null_callbacks with
          Stack.deliver = (fun ~sender:_ v -> log := v :: !log) }
      ()
  in
  let shared1 = Stack.make_shared config in
  let view1 = Group.make_view ~view_id:0 [ a; b ] in
  let a1 = make_member ~endpoint:endpoint_a shared1 view1 a got_g1 in
  let _b1 = make_member shared1 view1 b (ref []) in
  let shared2 = Stack.make_shared config in
  let view2 = Group.make_view ~view_id:0 [ a; c ] in
  let a2 = make_member ~endpoint:endpoint_a shared2 view2 a got_g2 in
  let c2 = make_member shared2 view2 c (ref []) in
  check_bool "distinct group ids" true
    (Stack.group_id shared1 <> Stack.group_id shared2);
  Stack.multicast a1 11;
  Stack.multicast c2 22;
  Engine.run ~until:(Sim_time.ms 100) engine;
  Alcotest.(check (list int)) "group-1 deliveries at a" [ 11 ] (List.rev !got_g1);
  Alcotest.(check (list int)) "group-2 deliveries at a" [ 22; ] 
    (List.filter (fun v -> v = 22) (List.rev !got_g2));
  ignore a2

(* Two groups share a's endpoint. A peer one group dropped but the other
   still lists keeps its unacked segments, and they arrive once the network
   lets them; when the second group drops it too, they are given up. *)
let test_endpoint_peer_left_needs_every_group () =
  let net = Net.create ~latency:(Net.Fixed 100) ~drop_probability:1.0 () in
  let engine = Engine.create ~net () in
  let module Endpoint = Repro_catocs.Endpoint in
  let mode = Config.Reliable { rto = Sim_time.ms 5; max_retries = 400 } in
  let a = Engine.spawn engine ~name:"a" (fun _ _ -> ()) in
  let b = Engine.spawn engine ~name:"b" (fun _ _ -> ()) in
  let ea = Endpoint.create ~engine ~self:a ~mode () in
  let eb = Endpoint.create ~engine ~self:b ~mode () in
  let g1_lists_b = ref true and g2_lists_b = ref true in
  let ignore_proto ~src:_ (_ : int Wire.proto) = () in
  Endpoint.register_group ea ~group:1 ~lists:(fun p -> p = b && !g1_lists_b)
    ignore_proto;
  Endpoint.register_group ea ~group:2 ~lists:(fun p -> p = b && !g2_lists_b)
    ignore_proto;
  let got = ref [] in
  Endpoint.register_group eb ~group:2 ~lists:(fun p -> p = a)
    (fun ~src:_ proto ->
      match proto with
      | Wire.Join_request { joiner } -> got := joiner :: !got
      | _ -> ());
  let send joiner =
    Endpoint.send_wire ea ~dst:b (Wire.Proto (2, Wire.Join_request { joiner }))
  in
  send 7;
  Engine.run ~until:(Sim_time.ms 20) engine;
  g1_lists_b := false;
  Endpoint.peer_left ea b;
  Net.set_drop_probability net 0.0;
  Engine.run ~until:(Sim_time.ms 40) engine;
  Alcotest.(check (list int)) "group 2 still lists b: delivered" [ 7 ] !got;
  Net.set_drop_probability net 1.0;
  send 8;
  Engine.run ~until:(Sim_time.ms 60) engine;
  g2_lists_b := false;
  Endpoint.peer_left ea b;
  let sent = Endpoint.packets_sent ea in
  Net.set_drop_probability net 0.0;
  Engine.run ~until:(Sim_time.ms 200) engine;
  check_int "no group lists b: nothing resent" sent (Endpoint.packets_sent ea);
  Alcotest.(check (list int)) "the given-up segment never arrives" [ 7 ] !got

(* --- loss and reliable transport ------------------------------------------ *)

let test_reliable_transport_overcomes_loss () =
  let w =
    make_world ~n:3 ~drop:0.3
      ~transport:(Config.Reliable { rto = Sim_time.ms 20; max_retries = 50 })
      ~latency:(Net.Uniform (100, 3_000)) ()
  in
  for k = 1 to 20 do
    Stack.multicast w.stacks.(k mod 3) k
  done;
  run w (Sim_time.seconds 5);
  for i = 0 to 2 do
    let got = List.sort Int.compare (delivered_payloads w i) in
    Alcotest.(check (list int))
      (Printf.sprintf "member %d got everything despite loss" i)
      (List.init 20 (fun k -> k + 1))
      got
  done

let test_loss_without_reliability_blocks_causal () =
  (* drop everything from one instant: dependent messages stay pending *)
  let net = Net.create ~latency:(Net.Fixed 1_000) () in
  let engine = Engine.create ~net () in
  let config = Config.default in
  let stacks =
    Stack.create_group ~engine ~config ~names:[ "a"; "b"; "c" ] ()
  in
  let delivered_at_2 = ref 0 in
  Stack.set_callbacks stacks.(2)
    { Stack.null_callbacks with
      Stack.deliver = (fun ~sender:_ _ -> incr delivered_at_2) };
  (* message 1 lost to member 2 only: partial multicast *)
  Stack.inject_partial_multicast stacks.(0) 1 ~recipients:[ Stack.self stacks.(1) ];
  (* message 2 sent normally afterwards: causally after message 1 *)
  Engine.at engine (Sim_time.ms 5) (fun () -> Stack.multicast stacks.(0) 2);
  Engine.run ~until:(Sim_time.ms 15) engine;
  check_int "member 2 blocked by the gap" 0 !delivered_at_2;
  check_int "message parked in delay queue" 1 (Stack.pending_count stacks.(2))

(* --- transport unit tests --------------------------------------------------- *)

let test_transport_fifo_reassembly () =
  (* exponential latencies reorder packets; reliable mode restores order *)
  let net = Net.create ~latency:(Net.Exponential { mean_us = 5_000.0; floor = 10 }) () in
  let engine = Engine.create ~seed:5L ~net () in
  let got = ref [] in
  let a = Engine.spawn engine ~name:"a" (fun _ _ -> ()) in
  let b = Engine.spawn engine ~name:"b" (fun _ _ -> ()) in
  let tb =
    Transport.create ~engine ~self:b
      ~mode:(Config.Reliable { rto = Sim_time.ms 50; max_retries = 10 })
      ~on_deliver:(fun ~src:_ v -> got := v :: !got)
      ()
  in
  Engine.set_handler engine b (fun _ env -> Transport.handle tb env);
  let ta =
    Transport.create ~engine ~self:a
      ~mode:(Config.Reliable { rto = Sim_time.ms 50; max_retries = 10 })
      ~on_deliver:(fun ~src:_ _ -> ()) ()
  in
  Engine.set_handler engine a (fun _ env -> Transport.handle ta env);
  for i = 1 to 50 do
    Transport.send ta ~dst:b i
  done;
  Engine.run ~until:(Sim_time.seconds 2) engine;
  Alcotest.(check (list int)) "in order despite reordering"
    (List.init 50 (fun i -> i + 1))
    (List.rev !got)

let test_transport_encoded_reassembly () =
  (* Fifo_order over an encoded link: gossip frames from one sender arrive
     out of order. A frame is decoded only at its in-order delivery, so each
     delivered gossip still carries its own vector even though the codec
     decodes every gossip vector into one reused target. *)
  let engine = Engine.create ~net:(Net.create ()) () in
  let a = Engine.spawn engine ~name:"a" (fun _ _ -> ()) in
  let b = Engine.spawn engine ~name:"b" (fun _ _ -> ()) in
  let codec = Wire_codec.create Wire_codec.int_payload in
  let got = ref [] in
  let tb =
    Transport.create
      ~framing:
        { Transport.frame = Wire_codec.encode codec;
          unframe = Wire_codec.decode codec }
      ~engine ~self:b ~mode:Config.Fifo_order
      ~on_deliver:(fun ~src:_ w ->
        match w with
        | Wire.Proto (_, Wire.Gossip { lamport; vc; _ }) ->
          got := (lamport, Vector_clock.to_list vc) :: !got
        | Wire.Proto _ | Wire.Direct _ -> Alcotest.fail "expected gossip")
      ()
  in
  let vc_of i = [ i; 10 * i; 100 * i ] in
  let sender = Wire_codec.create Wire_codec.int_payload in
  let frame i =
    Wire_codec.encode sender
      (Wire.Proto
         (0, Wire.Gossip
               { view_id = 0; rank = 0; vc = Vector_clock.of_list (vc_of i);
                 lamport = i }))
  in
  List.iter
    (fun seq ->
      Transport.handle tb
        { Engine.src = a; dst = b; sent_at = Sim_time.zero;
          recv_at = Sim_time.zero;
          payload = Transport.Enc { seq; frame = frame seq } })
    [ 3; 1; 4; 0; 2; 6; 5 ];
  Alcotest.(check (list (pair int (list int))))
    "every gossip delivered in order with its own vector"
    (List.init 7 (fun i -> (i, vc_of i)))
    (List.rev !got)

(* One Reliable link a -> b (max_retries 100) carrying [sends] payloads,
   as fixed-width encoded frames of [frame_bytes] bytes when that is
   positive. The go-back-N schedule is pinned packet for packet: every rto,
   each unacked segment is resent oldest first, so a window that resends
   the wrong set moves these counts; every transmitted frame, resends
   included, is charged to the wire. *)
let check_schedule ~frame_bytes ~latency ~drop_probability ~seed ~rto ~sends
    ~retransmits ~sent ~acks =
  let net = Net.create ~latency ~drop_probability () in
  let engine = Engine.create ~seed ~net () in
  let got = ref [] in
  let a = Engine.spawn engine ~name:"a" (fun _ _ -> ()) in
  let b = Engine.spawn engine ~name:"b" (fun _ _ -> ()) in
  let mode = Config.Reliable { rto = Sim_time.ms rto; max_retries = 100 } in
  let framing =
    if frame_bytes = 0 then None
    else
      Some
        { Transport.frame = Printf.sprintf "%0*d" frame_bytes;
          unframe = int_of_string }
  in
  let tb =
    Transport.create ?framing ~engine ~self:b ~mode
      ~on_deliver:(fun ~src:_ v -> got := v :: !got)
      ()
  in
  Engine.set_handler engine b (fun _ env -> Transport.handle tb env);
  let ta =
    Transport.create ?framing ~engine ~self:a ~mode
      ~on_deliver:(fun ~src:_ _ -> ()) ()
  in
  Engine.set_handler engine a (fun _ env -> Transport.handle ta env);
  for i = 1 to sends do
    Transport.send ta ~dst:b i
  done;
  Engine.run ~until:(Sim_time.seconds 10) engine;
  Alcotest.(check (list int)) "all delivered in order"
    (List.init sends (fun i -> i + 1))
    (List.rev !got);
  check_int "retransmissions" retransmits (Transport.retransmissions ta);
  check_int "sender packets" sent (Transport.packets_sent ta);
  check_int "receiver packets" acks (Transport.packets_sent tb);
  check_int "wire bytes" (frame_bytes * sent) (Transport.wire_bytes_sent ta)

let test_transport_retransmits_on_loss () =
  check_schedule ~frame_bytes:0 ~latency:(Net.Fixed 100) ~drop_probability:0.5
    ~seed:7L ~rto:10 ~sends:30 ~retransmits:140 ~sent:170 ~acks:89

let test_transport_retransmits_reordering () =
  check_schedule ~frame_bytes:0 ~latency:(Net.Uniform (500, 5_000))
    ~drop_probability:0.2 ~seed:3L ~rto:10 ~sends:200 ~retransmits:717
    ~sent:917 ~acks:720

let test_transport_no_loss_no_retransmit () =
  (* acks empty the window before the first tick fires *)
  check_schedule ~frame_bytes:0 ~latency:(Net.Fixed 100) ~drop_probability:0.0
    ~seed:1L ~rto:5 ~sends:50 ~retransmits:0 ~sent:50 ~acks:50

let test_transport_encoded_reliable () =
  (* a framed Reliable link ships every payload as an encoded frame *)
  check_schedule ~frame_bytes:8 ~latency:(Net.Uniform (500, 5_000))
    ~drop_probability:0.01 ~seed:3L ~rto:10 ~sends:200 ~retransmits:157
    ~sent:357 ~acks:355

(* --- pure queue structures -------------------------------------------------- *)

let mk_data ?(msg_id = 0) ?(origin = 0) ~sender_rank ~vt () =
  { Wire.msg_id; trace_id = msg_id; origin; sender_rank; view_id = 0;
    vt = Vector_clock.of_list vt; meta = Wire.Causal_meta; payload = msg_id;
    payload_bytes = 10; sent_at = 0; piggyback = [] }

let test_delivery_queue_causal_blocks_gap () =
  let q = Delivery_queue.create Delivery_queue.Causal_full in
  let local = Vector_clock.of_list [ 0; 0 ] in
  Delivery_queue.add q
    { Delivery_queue.data = mk_data ~msg_id:2 ~sender_rank:0 ~vt:[ 2; 0 ] ();
      arrived_at = 0 };
  Alcotest.(check bool) "gap blocks" true
    (Delivery_queue.take_deliverable q ~local = None);
  Delivery_queue.add q
    { Delivery_queue.data = mk_data ~msg_id:1 ~sender_rank:0 ~vt:[ 1; 0 ] ();
      arrived_at = 0 };
  (match Delivery_queue.take_deliverable q ~local with
   | Some p -> check_int "first msg released" 1 p.Delivery_queue.data.Wire.msg_id
   | None -> Alcotest.fail "expected deliverable");
  Vector_clock.merge_into local (Vector_clock.of_list [ 1; 0 ]);
  (match Delivery_queue.take_deliverable q ~local with
   | Some p -> check_int "second msg released" 2 p.Delivery_queue.data.Wire.msg_id
   | None -> Alcotest.fail "expected second deliverable")

let test_delivery_queue_fifo_ignores_cross_deps () =
  let q = Delivery_queue.create Delivery_queue.Fifo_gap in
  let local = Vector_clock.of_list [ 0; 0 ] in
  (* depends on an unseen message from rank 1, but FIFO mode doesn't care *)
  Delivery_queue.add q
    { Delivery_queue.data = mk_data ~msg_id:1 ~sender_rank:0 ~vt:[ 1; 5 ] ();
      arrived_at = 0 };
  check_bool "fifo delivers despite cross-sender dep" true
    (Delivery_queue.take_deliverable q ~local <> None)

let mk_pending ?(meta = Wire.Causal_meta) ?(sender_rank = 0) id =
  { Delivery_queue.data =
      { (mk_data ~msg_id:id ~sender_rank ~vt:[ 1; 0; 0 ] ()) with Wire.meta };
    arrived_at = 0 }

let lamport_pending ~time ~node id =
  mk_pending ~meta:(Wire.Lamport_meta { Lamport.time; node }) ~sender_rank:node
    id

let released total =
  match Total_order.take_ready total with
  | Some p -> Some p.Delivery_queue.data.Wire.msg_id
  | None -> None

let check_released msg expected total =
  Alcotest.(check (option int)) msg expected (released total)

(* A member that is not the sequencer holds data until the sequencer's
   contiguous order reaches it; the sequencer assigns as it holds. *)
let test_sequencer_queue_contiguous_release () =
  let q = Total_order.create Config.Total_sequencer ~rank:1 ~group_size:3 in
  check_bool "held" true (Total_order.hold q (mk_pending 10));
  check_bool "held" true (Total_order.hold q (mk_pending 11));
  check_int "not the sequencer" (-1) (Total_order.assign_order q ~msg_id:11);
  Total_order.add_order q ~msg_id:11 ~global_seq:1;
  check_released "seq 0 missing: nothing released" None q;
  Total_order.add_order q ~msg_id:10 ~global_seq:0;
  check_released "seq 0 first" (Some 10) q;
  check_released "seq 1 second" (Some 11) q;
  check_released "empty after" None q;
  let sq = Total_order.create Config.Total_sequencer ~rank:0 ~group_size:3 in
  ignore (Total_order.hold sq (mk_pending 20) : bool);
  check_int "sequencer assigns 0" 0 (Total_order.assign_order sq ~msg_id:20);
  ignore (Total_order.hold sq (mk_pending 21) : bool);
  check_int "sequencer assigns 1" 1 (Total_order.assign_order sq ~msg_id:21);
  check_released "own order releases" (Some 20) sq;
  check_released "in sequence" (Some 21) sq;
  Alcotest.(check (list (triple int int int)))
    "known orders kept after release" [ (0, 20, 0); (0, 21, 1) ]
    (Total_order.known_orders sq ~view_id:0)

(* A Lamport-stamped message is released once every rank is observed past
   its stamp: own clock, direct gossip, and gossip deferred until the
   gossiper's sends are delivered here. *)
let test_lamport_queue_release_rule () =
  let q = Total_order.create Config.Total_lamport ~rank:0 ~group_size:3 in
  check_bool "held" true (Total_order.hold q (lamport_pending ~time:5 ~node:0 1));
  Total_order.observe_own_clock q 10;
  let delivered = Vector_clock.of_list [ 1; 0; 0 ] in
  Total_order.observe_gossip q ~rank:1 ~time:10
    ~sent:(Vector_clock.of_list [ 0; 0; 0 ]) ~delivered;
  check_released "rank 2 unseen: held" None q;
  (* rank 2 had sent one message this member has not delivered yet *)
  Total_order.observe_gossip q ~rank:2 ~time:6
    ~sent:(Vector_clock.of_list [ 0; 0; 1 ]) ~delivered;
  Total_order.apply_deferred_gossip q ~delivered;
  check_released "rank 2 gossip deferred: held" None q;
  Total_order.apply_deferred_gossip q
    ~delivered:(Vector_clock.of_list [ 1; 0; 1 ]);
  check_released "released" (Some 1) q;
  check_released "empty after" None q;
  check_bool "no stamp: deliver now" false
    (Total_order.hold q (mk_pending 2))

(* The view-change take empties both total-order queues: a member ejected at
   that install keeps its epoch, so leftovers it final-delivered must not
   stay counted by [Stack.pending_count] and the blocked-messages gauge. *)
let test_total_order_drain_empties () =
  let sq = Total_order.create Config.Total_sequencer ~rank:1 ~group_size:3 in
  ignore (Total_order.hold sq (mk_pending 10) : bool);
  ignore (Total_order.hold sq (mk_pending 11) : bool);
  check_int "sequencer held" 2 (Total_order.length sq);
  let delivered = Vector_clock.of_list [ 1; 1; 1 ] in
  check_int "sequencer leftovers" 2
    (List.length (Total_order.drain sq ~delivered));
  check_int "sequencer length after" 0 (Total_order.length sq);
  let lq = Total_order.create Config.Total_lamport ~rank:0 ~group_size:3 in
  ignore (Total_order.hold lq (lamport_pending ~time:5 ~node:0 1) : bool);
  ignore (Total_order.hold lq (lamport_pending ~time:6 ~node:1 2) : bool);
  check_int "lamport leftovers" 2
    (List.length (Total_order.drain lq ~delivered));
  check_int "lamport length after" 0 (Total_order.length lq);
  check_released "lamport empty after" None lq

(* A Lamport leftover whose vector stamp names a message no survivor
   delivered (it reached only members the group lost) is dropped at the
   install, and so is every later message from its sender; the others are
   delivered in stamp order. *)
let test_lamport_drain_drops_lost_dependency () =
  let held ~time ~node ~vt id =
    { Delivery_queue.data =
        { (mk_data ~msg_id:id ~sender_rank:node ~vt ()) with
          Wire.meta = Wire.Lamport_meta { Lamport.time; node } };
      arrived_at = 0 }
  in
  let q = Total_order.create Config.Total_lamport ~rank:0 ~group_size:3 in
  List.iter
    (fun p -> ignore (Total_order.hold q p : bool))
    [ held ~time:3 ~node:0 ~vt:[ 1; 0; 0 ] 1;
      held ~time:5 ~node:1 ~vt:[ 2; 1; 0 ] 2;
      held ~time:6 ~node:1 ~vt:[ 2; 2; 0 ] 3;
      held ~time:7 ~node:2 ~vt:[ 1; 0; 1 ] 4 ];
  Alcotest.(check (list int)) "rank 0's second message never arrived"
    [ 1; 4 ]
    (List.map
       (fun (p : _ Delivery_queue.pending) -> p.Delivery_queue.data.Wire.msg_id)
       (Total_order.drain q ~delivered:(Vector_clock.of_list [ 1; 2; 1 ])))

(* Under FIFO and causal ordering the layer holds nothing: every message
   goes straight back to the caller for delivery. *)
let test_total_order_unordered () =
  List.iter
    (fun ordering ->
      let q = Total_order.create ordering ~rank:0 ~group_size:3 in
      check_bool "deliver now" false (Total_order.hold q (mk_pending 1));
      check_bool "stamped: deliver now" false
        (Total_order.hold q (lamport_pending ~time:5 ~node:0 2));
      check_int "no order assigned" (-1) (Total_order.assign_order q ~msg_id:1);
      Total_order.add_order q ~msg_id:1 ~global_seq:0;
      Total_order.observe_own_clock q 10;
      check_int "nothing held" 0 (Total_order.length q);
      check_released "nothing to release" None q;
      Alcotest.(check (list (triple int int int))) "no orders" []
        (Total_order.known_orders q ~view_id:0);
      check_int "nothing drained" 0
        (List.length
           (Total_order.drain q ~delivered:(Vector_clock.create 3))))
    [ Config.Fifo; Config.Causal ]

(* --- group views -------------------------------------------------------------- *)

let test_group_view_basics () =
  let v = Group.make_view ~view_id:0 [ 9; 3; 7 ] in
  check_int "sorted rank 0" 3 (Group.member v 0);
  check_int "sorted rank 2" 9 (Group.member v 2);
  Alcotest.(check (option int)) "rank_of" (Some 1) (Group.rank_of v 7);
  Alcotest.(check (option int)) "rank_of missing" None (Group.rank_of v 4);
  check_int "coordinator" 3 (Group.coordinator v);
  let v2 = Group.remove v [ 3 ] ~new_view_id:1 in
  check_int "removed" 2 (Group.size v2);
  check_int "new coordinator" 7 (Group.coordinator v2)

(* --- property: random reactive workloads keep causal order ------------------- *)

let prop_causal_never_misorders =
  QCheck.Test.make ~name:"causal order holds on random reactive workloads"
    ~count:25
    QCheck.(make Gen.(pair (int_range 1 10_000) (int_range 2 5)))
    (fun (seed, n) ->
      let w =
        make_world ~n ~ordering:Config.Causal
          ~latency:(Net.Uniform (100, 30_000)) ~seed:(Int64.of_int seed) ()
      in
      let next_id = ref 0 in
      let cause = Hashtbl.create 64 in
      Array.iteri
        (fun i stack ->
          Stack.set_callbacks stack
            { Stack.null_callbacks with
              Stack.deliver =
                (fun ~sender:_ payload ->
                  w.deliveries.(i) <- (0, payload) :: w.deliveries.(i);
                  (* bounded reaction: member (payload mod n) replies *)
                  if payload < 60 && payload mod n = i then begin
                    incr next_id;
                    let id = 1000 + !next_id in
                    Hashtbl.replace cause id payload;
                    Stack.multicast stack id
                  end) })
        w.stacks;
      for k = 0 to 9 do
        Engine.at w.engine (Sim_time.ms (1 + k)) (fun () ->
            Stack.multicast w.stacks.(k mod n) k)
      done;
      run w (Sim_time.seconds 3);
      (* check: at every member, each effect is delivered after its cause *)
      let ok = ref true in
      Array.iter
        (fun delivered ->
          let order = Hashtbl.create 64 in
          List.iteri (fun idx (_, p) -> Hashtbl.replace order p idx)
            (List.rev delivered);
          Hashtbl.iter
            (fun effect c ->
              match (Hashtbl.find_opt order effect, Hashtbl.find_opt order c) with
              | Some ei, Some ci -> if ci >= ei then ok := false
              | Some _, None -> ok := false  (* effect without cause *)
              | None, _ -> ())
            cause)
        w.deliveries;
      !ok)

let prop_total_orders_agree =
  QCheck.Test.make ~name:"total order identical at all members" ~count:15
    QCheck.(make Gen.(pair (int_range 1 10_000) (int_range 2 5)))
    (fun (seed, n) ->
      let w =
        make_world ~n ~ordering:Config.Total_sequencer
          ~latency:(Net.Uniform (100, 30_000)) ~seed:(Int64.of_int seed) ()
      in
      concurrent_blast w ~per_member:5;
      run w (Sim_time.seconds 3);
      let reference = delivered_payloads w 0 in
      List.length reference = n * 5
      && Array.for_all (fun _ -> true) w.stacks
      && (let agree = ref true in
          for i = 1 to n - 1 do
            if delivered_payloads w i <> reference then agree := false
          done;
          !agree))

(* Virtual synchrony: whatever the crash timing, all survivors end with
   exactly the same delivered message set (flush re-supply + consistent
   drops make delivery all-or-nothing among survivors). *)
let prop_virtual_synchrony_under_random_crash =
  QCheck.Test.make ~name:"survivors deliver identical sets under crashes"
    ~count:30
    QCheck.(make Gen.(triple (int_range 1 10_000) (int_range 3 5) (int_range 1 400)))
    (fun (seed, n, crash_ms) ->
      let w =
        make_world ~n ~ordering:Config.Causal
          ~latency:(Net.Uniform (100, 20_000)) ~seed:(Int64.of_int seed) ()
      in
      (* steady traffic from everyone *)
      Array.iteri
        (fun i stack ->
          let cancel =
            Engine.every w.engine ~owner:(Stack.self stack)
              ~start:(Sim_time.us (1_000 + (i * 101)))
              ~period:(Sim_time.ms 7)
              (fun () -> Stack.multicast stack ((i * 1_000_000) + Engine.now w.engine))
          in
          Engine.at w.engine (Sim_time.ms 450) cancel)
        w.stacks;
      let victim = n - 1 in
      Engine.at w.engine (Sim_time.ms crash_ms) (fun () ->
          Engine.crash w.engine (Stack.self w.stacks.(victim)));
      run w (Sim_time.seconds 2);
      let sets =
        List.init n (fun i -> i)
        |> List.filter (fun i -> i <> victim)
        |> List.map (fun i -> List.sort Int.compare (delivered_payloads w i))
      in
      match sets with
      | [] -> true
      | first :: rest -> List.for_all (fun s -> s = first) rest)

(* --- metrics accounting -------------------------------------------------- *)

module Metrics = Repro_catocs.Metrics

(* A two-member tracker on member 0 whose messages weigh [bytes]: sender 0's
   [seq]-th message is noted, and member 1's clock releases them. *)
let peak_tracker metrics =
  Repro_catocs.Stability.create ~bytes_of:(fun d -> d.Wire.payload)
    ~group_size:2 ~metrics ~graph:None ()

let note_seq st ~seq ~bytes =
  Repro_catocs.Stability.note_sent_or_delivered st
    { (mk_data ~msg_id:seq ~sender_rank:0 ~vt:[ seq; 0 ] ()) with
      Wire.payload = bytes }

let release_upto st seq =
  Repro_catocs.Stability.observe_vc st ~live:false ~rank:1 ~now:0
    (Vector_clock.of_list [ seq; 0 ])

let test_metrics_peak_unstable () =
  let m = Metrics.create () in
  let st = peak_tracker m in
  check_int "initial peak count" 0 m.Metrics.peak_unstable_count;
  note_seq st ~seq:1 ~bytes:100;
  note_seq st ~seq:2 ~bytes:50;
  check_int "peak count tracks" 2 m.Metrics.peak_unstable_count;
  check_int "peak bytes tracks" 150 m.Metrics.peak_unstable_bytes;
  (* releases lower occupancy but never the recorded peak *)
  release_upto st 1;
  check_int "count after release" 1 (Repro_catocs.Stability.unstable_count st);
  check_int "bytes after release" 50 (Repro_catocs.Stability.unstable_bytes st);
  check_int "peak count sticks" 2 m.Metrics.peak_unstable_count;
  check_int "peak bytes sticks" 150 m.Metrics.peak_unstable_bytes;
  (* a new high watermark must exceed the old peak to move it *)
  note_seq st ~seq:3 ~bytes:10;
  check_int "peak unchanged below watermark" 150 m.Metrics.peak_unstable_bytes;
  note_seq st ~seq:4 ~bytes:200;
  check_int "peak advances" 260 m.Metrics.peak_unstable_bytes;
  check_int "peak count advances" 3 m.Metrics.peak_unstable_count

(* A view install starts an empty tracker: what the old view still held
   must not carry into the new view's peak. Gossip never fires, so nothing
   stabilises; member 2's crash moves the group to a second view between
   member 0's two bursts. *)
let test_metrics_peak_unstable_per_view () =
  let w =
    make_world ~seed:5L ~gossip_period:(Sim_time.seconds 10)
      ~track_graph:false ()
  in
  let burst first count =
    for k = 0 to count - 1 do
      Engine.at w.engine (Sim_time.ms (first + k)) (fun () ->
          Stack.multicast w.stacks.(0) (first + k))
    done
  in
  burst 1 5;
  Engine.at w.engine (Sim_time.ms 20) (fun () ->
      Engine.crash w.engine (Stack.self w.stacks.(2)));
  burst 201 3;
  run w (Sim_time.ms 500);
  for i = 0 to 1 do
    check_int
      (Printf.sprintf "member %d peak is the first view's buffer" i)
      5 (Stack.metrics w.stacks.(i)).Metrics.peak_unstable_count
  done;
  check_int "member 0 holds only the second burst" 3
    (Stack.unstable_count w.stacks.(0))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_causal_never_misorders; prop_total_orders_agree;
      prop_virtual_synchrony_under_random_crash ]

let () =
  Alcotest.run "repro_catocs"
    [
      ( "delivery",
        [
          Alcotest.test_case "causal all deliver" `Quick test_causal_all_deliver;
          Alcotest.test_case "sender local delivery" `Quick
            test_sender_delivers_own_immediately;
          Alcotest.test_case "fifo per-sender order" `Quick test_fifo_per_sender_order;
          Alcotest.test_case "multiple senders" `Quick
            test_multiple_senders_all_delivered;
        ] );
      ( "causal-order",
        [
          Alcotest.test_case "chain ordered over seeds" `Slow
            test_causal_chain_ordered_many_seeds;
          Alcotest.test_case "fifo violates some seed" `Slow
            test_fifo_violates_causal_order_some_seed;
        ] );
      ( "total-order",
        [
          Alcotest.test_case "sequencer identical order" `Slow
            test_total_sequencer_identical_order;
          Alcotest.test_case "lamport identical order" `Slow
            test_total_lamport_identical_order;
          Alcotest.test_case "lamport needs gossip" `Quick
            test_total_lamport_needs_gossip_to_progress;
        ] );
      ( "stability",
        [
          Alcotest.test_case "buffers drain" `Quick test_stability_drains_buffers;
          Alcotest.test_case "stability lag sampled" `Quick
            test_stability_lag_metric;
          Alcotest.test_case "header overhead" `Quick test_metrics_header_overhead;
          Alcotest.test_case "pc zero stamps unwritten (structural)" `Quick
            (test_pc_zero_stamps_unwritten Config.Structural);
          Alcotest.test_case "pc zero stamps unwritten (encoded)" `Quick
            (test_pc_zero_stamps_unwritten Config.Encoded);
          Alcotest.test_case "encoded gossip not adopted" `Quick
            test_encoded_gossip_not_adopted;
          Alcotest.test_case "structural gossip interned" `Quick
            test_structural_gossip_interned;
        ] );
      ( "view-change",
        [
          Alcotest.test_case "crash installs new view" `Quick test_view_change_on_crash;
          Alcotest.test_case "no resend to removed member" `Quick
            test_no_resend_to_removed_member;
          Alcotest.test_case "pre-crash msgs survive" `Quick
            test_messages_before_crash_reach_all_survivors;
          Alcotest.test_case "flush re-supplies partial" `Quick
            test_flush_resupplies_partial_multicast;
          Alcotest.test_case "duplicate in total-order window" `Quick
            test_duplicate_in_total_order_window;
          Alcotest.test_case "durability gap" `Quick
            test_durability_gap_local_only_multicast;
          Alcotest.test_case "send suppression" `Quick test_send_suppression_during_flush;
          Alcotest.test_case "two sequential crashes" `Quick test_two_sequential_crashes;
          Alcotest.test_case "sequencer failover" `Quick test_sequencer_failover;
        ] );
      ( "piggyback",
        [
          Alcotest.test_case "fills partial-multicast gap" `Quick
            test_piggyback_fills_partial_multicast_gap;
          Alcotest.test_case "transport gives up" `Quick
            test_transport_gives_up_after_max_retries;
          Alcotest.test_case "transport give_up now" `Quick
            test_transport_give_up;
        ] );
      ( "heartbeat",
        [
          Alcotest.test_case "detects crash without oracle" `Quick
            test_heartbeat_detects_crash;
          Alcotest.test_case "partition split and rejoin" `Quick
            test_heartbeat_partition_split_and_rejoin;
          Alcotest.test_case "partition heal traffic regression" `Quick
            test_partition_heal_traffic_regression;
        ] );
      ( "multi-group",
        [ Alcotest.test_case "two groups one process" `Quick
            test_two_groups_one_process;
          Alcotest.test_case "peer_left needs every group" `Quick
            test_endpoint_peer_left_needs_every_group ] );
      ( "join",
        [
          Alcotest.test_case "join expands view" `Quick test_join_expands_view;
          Alcotest.test_case "state transfer" `Quick test_join_state_transfer;
          Alcotest.test_case "join during flush queued" `Quick
            test_join_during_flush_is_queued;
          Alcotest.test_case "join survives flush restart" `Quick
            test_join_survives_flush_restart;
          Alcotest.test_case "rejoin after crash" `Quick test_rejoin_after_crash;
          Alcotest.test_case "rejoined pid survives next failure" `Quick
            test_rejoined_pid_survives_next_failure;
          Alcotest.test_case "shutdown stack inert" `Quick
            test_shutdown_stack_inert;
          Alcotest.test_case "shut-down joiner stops requests" `Quick
            test_shutdown_joiner_stops_requests;
        ] );
      ( "loss",
        [
          Alcotest.test_case "reliable transport overcomes loss" `Slow
            test_reliable_transport_overcomes_loss;
          Alcotest.test_case "loss blocks causal without reliability" `Quick
            test_loss_without_reliability_blocks_causal;
        ] );
      ( "transport",
        [
          Alcotest.test_case "fifo reassembly" `Quick test_transport_fifo_reassembly;
          Alcotest.test_case "encoded reassembly decodes in order" `Quick
            test_transport_encoded_reassembly;
          Alcotest.test_case "retransmits on loss" `Quick
            test_transport_retransmits_on_loss;
          Alcotest.test_case "retransmits under reordering" `Quick
            test_transport_retransmits_reordering;
          Alcotest.test_case "no loss, no retransmit" `Quick
            test_transport_no_loss_no_retransmit;
          Alcotest.test_case "encoded frames over reliable" `Quick
            test_transport_encoded_reliable;
        ] );
      ( "queues",
        [
          Alcotest.test_case "causal gap blocks" `Quick
            test_delivery_queue_causal_blocks_gap;
          Alcotest.test_case "fifo ignores cross deps" `Quick
            test_delivery_queue_fifo_ignores_cross_deps;
          Alcotest.test_case "sequencer contiguous" `Quick
            test_sequencer_queue_contiguous_release;
          Alcotest.test_case "lamport release rule" `Quick test_lamport_queue_release_rule;
          Alcotest.test_case "total-order drain empties" `Quick
            test_total_order_drain_empties;
          Alcotest.test_case "lamport drain lost dependency" `Quick
            test_lamport_drain_drops_lost_dependency;
          Alcotest.test_case "unordered holds nothing" `Quick
            test_total_order_unordered;
        ] );
      ("group", [ Alcotest.test_case "view basics" `Quick test_group_view_basics ]);
      ( "metrics",
        [
          Alcotest.test_case "peak unstable accounting" `Quick
            test_metrics_peak_unstable;
          Alcotest.test_case "peak unstable per view" `Quick
            test_metrics_peak_unstable_per_view;
        ] );
      ("properties", qcheck_cases);
    ]
