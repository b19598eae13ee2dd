(* Quickstart: build a causal process group on the simulator, multicast a
   reactive chain of messages, crash a member, and watch the view change.

   Run with: dune exec examples/quickstart.exe *)

module Config = Repro_catocs.Config
module Stack = Repro_catocs.Stack
module Group = Repro_catocs.Group

let () =
  (* 1. a network and a deterministic engine *)
  let net = Net.create ~latency:(Net.Uniform (1_000, 5_000)) () in
  let engine = Engine.create ~seed:7L ~net () in

  (* 2. a four-member group running CBCAST (causal multicast) *)
  let stacks =
    Stack.create_group ~engine
      ~config:{ Config.default with Config.ordering = Config.Causal }
      ~names:[ "alice"; "bob"; "carol"; "dave" ] ()
  in

  (* 3. application behaviour: everyone logs deliveries; bob replies to
     "hello" — his reply is causally after it, so nobody can see the reply
     first *)
  Array.iteri
    (fun i stack ->
      Stack.set_callbacks stack
        {
          Stack.deliver =
            (fun ~sender payload ->
              Printf.printf "t=%-8s %-5s delivers %S (from p%d)\n"
                (Format.asprintf "%a" Sim_time.pp (Engine.now engine))
                (Engine.name engine (Stack.self stack))
                payload sender;
              if i = 1 && payload = "hello" then Stack.multicast stack "hi back!");
          view_change =
            (fun view ->
              Printf.printf "t=%-8s %-5s installs %s\n"
                (Format.asprintf "%a" Sim_time.pp (Engine.now engine))
                (Engine.name engine (Stack.self stack))
                (Format.asprintf "%a" Group.pp view));
          member_failed =
            (fun pid ->
              Printf.printf "t=%-8s %-5s learns %s failed\n"
                (Format.asprintf "%a" Sim_time.pp (Engine.now engine))
                (Engine.name engine (Stack.self stack))
                (Engine.name engine pid));
          direct = (fun ~src:_ _ -> ());
        })
    stacks;

  (* 4. drive the scenario *)
  Engine.at engine (Sim_time.ms 1) (fun () -> Stack.multicast stacks.(0) "hello");
  Engine.at engine (Sim_time.ms 40) (fun () ->
      print_endline "--- crashing dave ---";
      Engine.crash engine (Stack.self stacks.(3)));
  Engine.at engine (Sim_time.ms 200) (fun () ->
      Stack.multicast stacks.(2) "life goes on");
  Engine.run ~until:(Sim_time.ms 400) engine;

  (* 5. inspect protocol metrics *)
  let m = Stack.metrics stacks.(0) in
  Printf.printf
    "\nalice's stack: %d delivered, %d control msgs, %d header bytes, %d view change(s)\n"
    m.Repro_catocs.Metrics.delivered m.Repro_catocs.Metrics.control_messages
    m.Repro_catocs.Metrics.header_bytes m.Repro_catocs.Metrics.view_changes
