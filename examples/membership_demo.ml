(* Group membership demo: virtual-synchrony view changes, crash, recovery
   and re-join with state transfer.

   A replicated counter service: members deliver "add n" multicasts and keep
   a running sum — the group state. One replica crashes; the group flushes
   and carries on; the replica recovers and re-joins, receiving the current
   sum as a state transfer before its first delivery in the new view.

   Run with: dune exec examples/membership_demo.exe *)

module Config = Repro_catocs.Config
module Stack = Repro_catocs.Stack
module Group = Repro_catocs.Group

let say engine fmt =
  Printf.ksprintf
    (fun s ->
      Printf.printf "t=%-9s %s\n"
        (Format.asprintf "%a" Sim_time.pp (Engine.now engine))
        s)
    fmt

let () =
  let net = Net.create ~latency:(Net.Uniform (1_000, 4_000)) () in
  let engine = Engine.create ~seed:5L ~net () in
  let sums = Hashtbl.create 8 in
  let stacks =
    Stack.create_group ~engine
      ~config:{ Config.default with Config.ordering = Config.Causal }
      ~names:[ "r0"; "r1"; "r2" ] ()
  in
  let wire stack label =
    let self = Stack.self stack in
    Hashtbl.replace sums self 0;
    Stack.set_callbacks stack
      {
        Stack.deliver =
          (fun ~sender:_ n ->
            Hashtbl.replace sums self (Hashtbl.find sums self + n));
        view_change =
          (fun view ->
            say engine "%s installs %s (sum=%d)" label
              (Format.asprintf "%a" Group.pp view)
              (Hashtbl.find sums self));
        member_failed = (fun p -> say engine "%s learns p%d failed" label p);
        direct = (fun ~src:_ _ -> ());
      };
    Stack.set_state_handlers stack
      ~get:(fun () -> string_of_int (Hashtbl.find sums self))
      ~set:(fun s ->
        Hashtbl.replace sums self (int_of_string s);
        say engine "%s received state transfer: sum=%s" label s)
  in
  Array.iteri (fun i stack -> wire stack (Printf.sprintf "r%d" i)) stacks;

  (* additions flow continuously *)
  let cancel =
    Engine.every engine ~owner:(Stack.self stacks.(0)) ~period:(Sim_time.ms 20)
      (fun () -> Stack.multicast stacks.(0) 1)
  in
  Engine.at engine (Sim_time.ms 600) cancel;

  let victim = Stack.self stacks.(2) in
  Engine.at engine (Sim_time.ms 150) (fun () ->
      say engine "--- crashing r2 ---";
      Engine.crash engine victim);

  (* recovery: abandon the stale stack and re-join with a fresh one *)
  Engine.at engine (Sim_time.ms 400) (fun () ->
      say engine "--- r2 recovers and re-joins ---";
      Engine.recover engine victim;
      Stack.shutdown stacks.(2);
      let fresh =
        Stack.join ~engine ~shared:(Stack.shared_of stacks.(0))
          ~config:(Stack.config_of stacks.(0)) ~self:victim
          ~contact:(Stack.self stacks.(0)) ~callbacks:Stack.null_callbacks ()
      in
      stacks.(2) <- fresh;
      wire fresh "r2*");

  Engine.run ~until:(Sim_time.ms 900) engine;
  print_newline ();
  Array.iter
    (fun stack ->
      let self = Stack.self stack in
      Printf.printf "%s final: view #%d of %d members, sum=%d\n"
        (Engine.name engine self)
        (Stack.view stack).Group.view_id
        (Group.size (Stack.view stack))
        (Hashtbl.find sums self))
    stacks
