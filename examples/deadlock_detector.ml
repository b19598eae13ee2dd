(* Distributed deadlock detection example (Sections 4.2 and Appendix 9.2).

   First the building blocks: a 2PL lock manager whose wait-for graph
   detects a deadlock locally; then the distributed comparison — causally
   multicasting every RPC event (van Renesse) vs periodically multicasting
   instance-augmented wait-for edges.

   Run with: dune exec examples/deadlock_detector.exe *)

module Lock_manager = Repro_txn.Lock_manager
module Wait_for_graph = Repro_txn.Wait_for_graph
module Rpc = Repro_apps.Rpc_deadlock

let () =
  print_endline "Part 1: local deadlock detection with the 2PL lock manager";
  print_endline "-----------------------------------------------------------";
  let lm = Lock_manager.create () in
  ignore (Lock_manager.acquire lm 1 ~key:"accounts" Lock_manager.Exclusive);
  ignore (Lock_manager.acquire lm 2 ~key:"orders" Lock_manager.Exclusive);
  (match Lock_manager.acquire lm 1 ~key:"orders" Lock_manager.Exclusive with
   | Lock_manager.Waiting -> print_endline "  tx1 waits for orders (held by tx2)"
   | Lock_manager.Granted | Lock_manager.Deadlock _ -> ());
  (match Lock_manager.acquire lm 2 ~key:"accounts" Lock_manager.Exclusive with
   | Lock_manager.Deadlock cycle ->
     Printf.printf "  tx2 -> accounts would close the cycle: deadlock %s\n"
       (String.concat " -> " (List.map string_of_int cycle))
   | Lock_manager.Granted | Lock_manager.Waiting ->
     print_endline "  unexpected: no deadlock");
  print_endline
    "  (the verdict is order-insensitive: any interleaving of the wait-for";
  print_endline "   edges yields the same cycle - Section 4.2)";

  print_endline "\nPart 2: distributed RPC deadlock, two detection designs";
  print_endline "--------------------------------------------------------";
  List.iter
    (fun mode ->
      let r = Rpc.run mode in
      Printf.printf
        "  %-22s detected:%b in %5.1fms  false alarms:%d  cost: %6d msgs (%5.2f per RPC)\n"
        (Rpc.mode_name mode) r.Rpc.deadlock_detected r.Rpc.detection_latency_ms
        r.Rpc.false_alarms r.Rpc.messages_total r.Rpc.messages_per_rpc)
    [ Rpc.Van_renesse; Rpc.Periodic_waitfor ];

  print_endline
    "\nConclusion (Appendix 9.2): both designs detect the cycle with no false";
  print_endline
    "alarms, but causal multicast of every invocation and return taxes every";
  print_endline
    "RPC in the system; the periodic wait-for report costs a fraction of a";
  print_endline "message per RPC, off the critical path."
