(* Differential battery pinning the PC-broadcast causal implementation to
   the BSS vector-timestamp implementation at the whole-stack level.

   Two equivalence regimes, matching what the algorithms actually promise:

   - Strict battery: under a lossless fixed-latency full mesh with no
     churn, a message's first copy at every member is the direct one, both
     implementations deliver on arrival, and the runs consume no engine
     randomness — so delivery logs (origin, payload, instant) must be
     byte-identical across implementations.

   - Fault battery: partitions and joins make PC deliver *earlier* than BSS
     (relaying around severed links is its advantage), so instant-equality
     is the wrong spec. What must still agree per member: the delivered
     payload set, and the per-origin projection of root messages (both
     implementations promise per-origin FIFO). Within each run, causal
     order must hold: a reaction is never delivered before its trigger by
     any member that delivered both. A joiner must deliver, per origin, a
     contiguous suffix of what the old members deliver.

   Crashes are deliberately out of scope here: all-or-none outcomes depend
   on delivery timing, which legitimately differs across implementations.
   The checker's oracle sweeps in test_check cover PC under crashes. *)

module Config = Repro_catocs.Config
module Stack = Repro_catocs.Stack
module Group = Repro_catocs.Group
module Pc_causal = Repro_catocs.Pc_causal

(* --- scenarios ----------------------------------------------------------- *)

type scenario = {
  n : int;  (* initial members *)
  sends : (int * int) list;  (* (at_us, sender idx); payload = list index *)
  partition : (int * int * int list) option;  (* at_us, heal_us, left idxs *)
  join_at : int option;  (* one new member joins via member 0 *)
  horizon_us : int;
}

let show_scenario s =
  Printf.sprintf "n=%d sends=[%s] partition=%s join=%s"
    s.n
    (String.concat ";"
       (List.map (fun (t, m) -> Printf.sprintf "m%d@%d" m t) s.sends))
    (match s.partition with
     | None -> "none"
     | Some (at, heal, left) ->
       Printf.sprintf "[%s]@%d..%d"
         (String.concat "," (List.map string_of_int left))
         at heal)
    (match s.join_at with None -> "none" | Some t -> string_of_int t)

(* Reactions make the interleavings causally deep: member i, on delivering
   a root payload p with (p + i) mod 4 = 0, multicasts a payload that is a
   deterministic function of (p, i) — identical across implementations, so
   logs stay comparable even though reaction *timing* differs. Only initial
   members react: a joiner's trigger set near the join instant is timing-
   dependent, and reactions from it would leak that divergence into every
   member's delivered set. *)
let reaction_base = 1_000_000
let reaction_of ~trigger ~member = reaction_base + (trigger * 8) + member
let trigger_of reaction = (reaction - reaction_base) / 8

(* One full simulated run; returns per-member delivery logs in delivery
   order (slot [s.n] is the joiner, empty without a join), the initial
   member pids, the joiner stack, and the initial member stacks. Fixed
   latency and zero loss mean the engine RNG is never consumed, so each run
   is a pure function of the scenario. *)
let run_scenario ~causal_impl ~transport (s : scenario) =
  let net = Net.create ~latency:(Net.Fixed 1_000) () in
  let engine = Engine.create ~seed:9L ~net () in
  let config =
    { Config.default with Config.ordering = Config.Causal; causal_impl;
      transport }
  in
  let logs = Array.make (s.n + 1) [] in
  let stacks =
    Stack.create_group ~engine ~config
      ~names:(List.init s.n (fun i -> Printf.sprintf "p%d" i)) ()
  in
  Array.iteri
    (fun i stack ->
      Stack.set_callbacks stack
        { Stack.null_callbacks with
          Stack.deliver =
            (fun ~sender payload ->
              logs.(i) <- (sender, payload, Engine.now engine) :: logs.(i);
              if payload < reaction_base && (payload + i) mod 4 = 0 then
                Stack.multicast stack (reaction_of ~trigger:payload ~member:i)) })
    stacks;
  List.iteri
    (fun k (at, sender) ->
      Engine.at engine (Sim_time.us at) (fun () ->
          Stack.multicast stacks.(sender) k))
    s.sends;
  let joiner = ref None in
  (match s.join_at with
   | Some at ->
     Engine.at engine (Sim_time.us at) (fun () ->
         let pid = Engine.spawn engine ~name:"joiner" (fun _ _ -> ()) in
         joiner :=
           Some
             (Stack.join ~engine ~shared:(Stack.shared_of stacks.(0)) ~config
                ~self:pid ~contact:(Stack.self stacks.(0))
                ~callbacks:
                  { Stack.null_callbacks with
                    Stack.deliver =
                      (fun ~sender payload ->
                        logs.(s.n) <-
                          (sender, payload, Engine.now engine) :: logs.(s.n)) }
                ()))
   | None -> ());
  (match s.partition with
   | Some (at, heal_at, left) ->
     Engine.at engine (Sim_time.us at) (fun () ->
         let left_pids = List.map (fun i -> Stack.self stacks.(i)) left in
         let right_pids =
           Array.to_list stacks
           |> List.mapi (fun i st -> (i, Stack.self st))
           |> List.filter_map (fun (i, p) ->
                  if List.mem i left then None else Some p)
         in
         (* the joiner, if already alive, sits on the right side *)
         let right_pids =
           match !joiner with
           | Some st -> Stack.self st :: right_pids
           | None -> right_pids
         in
         Net.partition net left_pids right_pids);
     Engine.at engine (Sim_time.us heal_at) (fun () -> Net.heal net)
   | None -> ());
  Engine.run ~until:(Sim_time.us s.horizon_us) engine;
  (Array.map List.rev logs, Array.map Stack.self stacks, !joiner, stacks)

(* --- log views ----------------------------------------------------------- *)

let show_log l =
  String.concat ","
    (List.map (fun (o, p, t) -> Printf.sprintf "o%d/p%d@%d" o p t) l)

let payloads l = List.map (fun (_, p, _) -> p) l

let origin_roots l origin =
  List.filter_map
    (fun (o, p, _) -> if o = origin && p < reaction_base then Some p else None)
    l

(* a reaction must come after its trigger, for members holding both *)
let check_causal ~ctx l =
  let all = payloads l in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun p ->
      if p >= reaction_base then begin
        let trig = trigger_of p in
        if List.mem trig all && not (Hashtbl.mem seen trig) then
          QCheck.Test.fail_reportf
            "%s: reaction %d delivered before its trigger %d in [%s]" ctx p
            trig (show_log l)
      end;
      Hashtbl.replace seen p ())
    all

let rec is_suffix ~of_:full suffix =
  if List.length suffix > List.length full then false
  else if suffix = full then true
  else match full with [] -> suffix = [] | _ :: tl -> is_suffix ~of_:tl suffix

(* --- strict battery ------------------------------------------------------ *)

let strict_equiv (s : scenario) =
  let logs_bss, _, _, _ =
    run_scenario ~causal_impl:Config.Vector_causal
      ~transport:Config.Fifo_order s
  in
  let logs_pc, _, _, _ =
    run_scenario ~causal_impl:Config.Pc_causal ~transport:Config.Fifo_order s
  in
  Array.iteri
    (fun i la ->
      let lb = logs_pc.(i) in
      if la <> lb then
        QCheck.Test.fail_reportf
          "member %d delivery logs differ@.bss: %s@.pc : %s" i (show_log la)
          (show_log lb))
    logs_bss;
  true

(* --- fault battery ------------------------------------------------------- *)

let fault_equiv
    ?(transport = Config.Reliable { rto = Sim_time.ms 10; max_retries = 500 })
    (s : scenario) =
  let logs_bss, pids, _, _ =
    run_scenario ~causal_impl:Config.Vector_causal ~transport s
  in
  let logs_pc, _, _, _ =
    run_scenario ~causal_impl:Config.Pc_causal ~transport s
  in
  for i = 0 to s.n - 1 do
    let a = logs_bss.(i) and b = logs_pc.(i) in
    let sa = List.sort Int.compare (payloads a) in
    let sb = List.sort Int.compare (payloads b) in
    if sa <> sb then
      QCheck.Test.fail_reportf
        "member %d delivered sets differ@.bss: %s@.pc : %s" i (show_log a)
        (show_log b);
    Array.iter
      (fun o ->
        if origin_roots a o <> origin_roots b o then
          QCheck.Test.fail_reportf
            "member %d origin-%d projections differ@.bss: %s@.pc : %s" i o
            (show_log a) (show_log b))
      pids
  done;
  Array.iteri (fun i l -> check_causal ~ctx:(Printf.sprintf "bss m%d" i) l) logs_bss;
  Array.iteri (fun i l -> check_causal ~ctx:(Printf.sprintf "pc m%d" i) l) logs_pc;
  (* the joiner delivers, per origin, a contiguous suffix of the old
     members' projection — no holes (the link barrier's retransmission
     fills anything sent before its links opened) and no pre-join stragglers
     out of order *)
  (if s.join_at <> None then
     List.iter
       (fun (name, logs) ->
         Array.iter
           (fun o ->
             let full = origin_roots logs.(0) o in
             let j = origin_roots logs.(s.n) o in
             if not (is_suffix ~of_:full j) then
               QCheck.Test.fail_reportf
                 "%s: joiner origin-%d [%s] not a suffix of [%s]" name o
                 (String.concat "," (List.map string_of_int j))
                 (String.concat "," (List.map string_of_int full)))
           pids)
       [ ("bss", logs_bss); ("pc", logs_pc) ]);
  true

(* --- generators ---------------------------------------------------------- *)

let gen_sends n =
  QCheck.Gen.(
    list_size (int_range 5 40)
      (pair (int_range 1_000 400_000) (int_range 0 (n - 1))))

let gen_quiet =
  QCheck.Gen.(
    int_range 2 5 >>= fun n ->
    gen_sends n >>= fun sends ->
    return { n; sends; partition = None; join_at = None;
             horizon_us = 1_200_000 })

let gen_churn =
  QCheck.Gen.(
    int_range 3 5 >>= fun n ->
    gen_sends n >>= fun sends ->
    int_range 1 (n - 1) >>= fun split ->
    int_range 20_000 200_000 >>= fun part_at ->
    int_range 10_000 150_000 >>= fun part_dur ->
    bool >>= fun with_partition ->
    bool >>= fun with_join ->
    int_range 20_000 250_000 >>= fun join_at ->
    let partition =
      if with_partition then
        Some (part_at, part_at + part_dur, List.init split Fun.id)
      else None
    in
    (* at least one fault per case *)
    let join_at =
      if with_join || not with_partition then Some join_at else None
    in
    return { n; sends; partition; join_at; horizon_us = 1_500_000 })

let strict_test =
  QCheck.Test.make
    ~name:"strict: bss and pc delivery logs identical (lossless, no churn)"
    ~count:300
    (QCheck.make ~print:show_scenario gen_quiet)
    strict_equiv

let fault_test =
  QCheck.Test.make
    ~name:"faults: sets, per-origin order and causality agree (partition/join)"
    ~count:150
    (QCheck.make ~print:show_scenario gen_churn)
    (fun s -> fault_equiv s)

(* --- directed: late-join link barrier ------------------------------------ *)

let pc_config ~transport =
  { Config.default with Config.ordering = Config.Causal;
    causal_impl = Config.Pc_causal; transport }

let stats_exn st =
  match Stack.pc_stats st with
  | Some s -> s
  | None -> Alcotest.fail "pc stats missing on a pc stack"

(* A view-install-instant multicast must cross the join barrier: member 0
   multicasts from its view_change callback, before the joiner's pong can
   possibly have arrived (the pong needs the joiner to install first and a
   network round trip). The copy toward the joiner is withheld on the
   closed link and recovered by the pong-triggered unstable retransmission;
   nothing is lost and nothing is duplicated. *)
let test_join_barrier () =
  let net = Net.create ~latency:(Net.Fixed 1_000) () in
  let engine = Engine.create ~seed:3L ~net () in
  let config = pc_config ~transport:Config.Fifo_order in
  let logs = Array.make 4 [] in
  let stacks =
    Stack.create_group ~engine ~config ~names:[ "a"; "b"; "c" ] ()
  in
  Array.iteri
    (fun i stack ->
      Stack.set_callbacks stack
        { Stack.null_callbacks with
          Stack.deliver =
            (fun ~sender payload ->
              logs.(i) <- (sender, payload, Engine.now engine) :: logs.(i));
          view_change =
            (fun v ->
              if i = 0 && Group.size v = 4 then Stack.multicast stack 777) })
    stacks;
  (* pre-join traffic the joiner must NOT see *)
  Array.iteri
    (fun i stack ->
      Engine.at engine (Sim_time.ms (5 * (i + 1))) (fun () ->
          Stack.multicast stack (i + 1)))
    stacks;
  let joiner = ref None in
  Engine.at engine (Sim_time.ms 30) (fun () ->
      let pid = Engine.spawn engine ~name:"joiner" (fun _ _ -> ()) in
      joiner :=
        Some
          (Stack.join ~engine ~shared:(Stack.shared_of stacks.(0)) ~config
             ~self:pid ~contact:(Stack.self stacks.(0))
             ~callbacks:
               { Stack.null_callbacks with
                 Stack.deliver =
                   (fun ~sender payload ->
                     logs.(3) <- (sender, payload, Engine.now engine) :: logs.(3)) }
             ()));
  (* post-join traffic from everyone, joiner included *)
  Array.iteri
    (fun i stack ->
      Engine.at engine (Sim_time.ms 300) (fun () -> Stack.multicast stack (10 + i)))
    stacks;
  Engine.at engine (Sim_time.ms 310) (fun () ->
      match !joiner with
      | Some st -> Stack.multicast st 13
      | None -> ());
  Engine.run ~until:(Sim_time.ms 800) engine;
  let joiner = match !joiner with Some st -> st | None -> Alcotest.fail "no joiner" in
  let jlog = List.rev logs.(3) in
  let jpayloads = payloads jlog in
  (* barrier bookkeeping: the joiner pinged all three; member 0 withheld the
     install-instant multicast and later retransmitted it on the pong *)
  let js = stats_exn joiner in
  Alcotest.(check int) "joiner pinged every neighbor" 3 js.Pc_causal.pings_sent;
  let s0 = stats_exn stacks.(0) in
  Alcotest.(check bool) "member 0 withheld on the closed link" true
    (s0.Pc_causal.barrier_deferred >= 1);
  Alcotest.(check bool) "member 0 retransmitted on pong" true
    (s0.Pc_causal.barrier_retransmits >= 1);
  Alcotest.(check int) "member 0 answered the joiner's ping" 1
    s0.Pc_causal.pongs_sent;
  (* delivery content *)
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "joiner does not see pre-join %d" p)
        false (List.mem p jpayloads))
    [ 1; 2; 3 ];
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Printf.sprintf "joiner sees %d exactly once" p)
        1
        (List.length (List.filter (( = ) p) jpayloads)))
    [ 777; 10; 11; 12; 13 ];
  (* per-origin FIFO across the barrier: 777 (install instant) precedes
     member 0's later send everywhere *)
  Array.iteri
    (fun i _ ->
      let proj =
        List.filter (fun p -> p = 777 || p = 10) (payloads (List.rev logs.(i)))
      in
      Alcotest.(check (list int))
        (Printf.sprintf "member %d orders origin-0 across the barrier" i)
        [ 777; 10 ] proj)
    logs

(* --- directed: forwarding relays around a partition ---------------------- *)

(* Members 0 and 1 are severed; member 2 still reaches both. Member 0
   multicasts 100; member 2 reacts with 200 on delivering it. Under PC,
   member 2's forward-on-first-delivery relays 100 to member 1 *before*
   the reaction is multicast (the forward must precede the application
   callback), so member 1 delivers [100; 200] mid-partition. BSS has no
   relay: member 1 buffers 200 behind the vector gate until the partition
   heals. With forwarding chaos-disabled, PC degrades to per-origin FIFO
   and member 1 delivers the inversion [200; 100] — the naked causal
   violation the checker's mutation test convicts. *)
let relay_scenario ~causal_impl () =
  let net = Net.create ~latency:(Net.Fixed 1_000) () in
  let engine = Engine.create ~seed:5L ~net () in
  let config =
    { Config.default with Config.ordering = Config.Causal; causal_impl;
      transport = Config.Reliable { rto = Sim_time.ms 10; max_retries = 100 } }
  in
  let logs = Array.make 3 [] in
  let stacks =
    Stack.create_group ~engine ~config ~names:[ "a"; "b"; "c" ] ()
  in
  Array.iteri
    (fun i stack ->
      Stack.set_callbacks stack
        { Stack.null_callbacks with
          Stack.deliver =
            (fun ~sender payload ->
              logs.(i) <- (sender, payload, Engine.now engine) :: logs.(i);
              if i = 2 && payload = 100 then Stack.multicast stack 200) })
    stacks;
  Net.partition net [ Stack.self stacks.(0) ] [ Stack.self stacks.(1) ];
  Engine.at engine (Sim_time.ms 10) (fun () -> Stack.multicast stacks.(0) 100);
  Engine.at engine (Sim_time.ms 60) (fun () -> Net.heal net);
  Engine.run ~until:(Sim_time.ms 200) engine;
  List.rev logs.(1)

let test_relay_beats_partition () =
  let pc = relay_scenario ~causal_impl:Config.Pc_causal () in
  Alcotest.(check (list int)) "pc: causal order via relay" [ 100; 200 ]
    (payloads pc);
  (match pc with
   | (_, 100, t) :: _ ->
     Alcotest.(check bool) "pc delivered 100 mid-partition" true
       (t < Sim_time.ms 60)
   | _ -> Alcotest.fail "pc log shape");
  let bss = relay_scenario ~causal_impl:Config.Vector_causal () in
  Alcotest.(check (list int)) "bss: same order, but only after heal"
    [ 100; 200 ] (payloads bss);
  match bss with
  | (_, 100, t) :: _ ->
    Alcotest.(check bool) "bss blocked until heal" true (t >= Sim_time.ms 60)
  | _ -> Alcotest.fail "bss log shape"

let test_no_forwarding_inverts_causality () =
  Fun.protect
    ~finally:(fun () -> Pc_causal.chaos_disable_forwarding := false)
  @@ fun () ->
  Pc_causal.chaos_disable_forwarding := true;
  let broken = relay_scenario ~causal_impl:Config.Pc_causal () in
  Alcotest.(check (list int))
    "without forwarding the per-origin gate alone inverts causal order"
    [ 200; 100 ] (payloads broken)

(* --- directed: forward parity under delivery skew ------------------------ *)

(* Member 1 is isolated while member 0 multicasts, so its copy arrives
   100ms late (one Reliable retry) with gossip queued behind it on the same
   FIFO links. The late first delivery must still trigger a forward, and
   every member's delivered set must match BSS's under the fault-battery
   spec. *)
let test_forward_parity_under_skew () =
  let s =
    { n = 3;
      sends = [ (10_000, 0) ];
      partition = Some (5_000, 75_000, [ 1 ]);
      join_at = None; horizon_us = 500_000 }
  in
  let transport =
    Config.Reliable { rto = Sim_time.ms 100; max_retries = 20 }
  in
  Alcotest.(check bool) "fault-battery equivalence with bss" true
    (fault_equiv ~transport s);
  let _, _, _, stacks =
    run_scenario ~causal_impl:Config.Pc_causal ~transport s
  in
  Alcotest.(check bool) "the skewed member forwarded" true
    ((stats_exn stacks.(1)).Pc_causal.forwards > 0)

(* --- directed strict regression ------------------------------------------ *)

(* Same-instant sends from several members plus a reaction chain: the exact
   interleaving the strict battery most often exercises, pinned as a
   deterministic regression. *)
let test_strict_directed () =
  let s =
    { n = 3;
      sends =
        [ (1_000, 0); (1_000, 1); (1_000, 2); (2_000, 0); (2_000, 0);
          (3_500, 1); (3_500, 2); (50_000, 0); (50_001, 1); (50_002, 2) ];
      partition = None; join_at = None; horizon_us = 600_000 }
  in
  Alcotest.(check bool) "strict equivalence" true (strict_equiv s)

let () =
  Alcotest.run "pc_equiv"
    [
      ( "differential",
        List.map QCheck_alcotest.to_alcotest [ strict_test; fault_test ] );
      ( "directed",
        [ Alcotest.test_case "late-join link barrier" `Quick test_join_barrier;
          Alcotest.test_case "forwarding relays around a partition" `Quick
            test_relay_beats_partition;
          Alcotest.test_case "chaos: no forwarding inverts causality" `Quick
            test_no_forwarding_inverts_causality;
          Alcotest.test_case "forward parity under delivery skew" `Quick
            test_forward_parity_under_skew;
          Alcotest.test_case "strict directed interleaving" `Quick
            test_strict_directed ] );
    ]
