module Config = Repro_catocs.Config
module Stack = Repro_catocs.Stack
module Endpoint = Repro_catocs.Endpoint
module Tpc = Repro_txn.Two_phase_commit

type mode = Catocs_ops | Transactional

let seed = 1L
let replicas = 3
let accounts = 4
let initial_balance = 60
let transfers = 300
let transfer_interval = Sim_time.ms 3

(** amounts drawn in [1, max_amount]: large enough to make stale funds
    checks fail sometimes *)
let max_amount = 50

let latency = Net.Uniform (500, 5_000)

type result = {
  mode : mode;
  transfers_attempted : int;
  transfers_applied : int;
  split_transfers : int;
  conservation_violations : int;
  final_sum_error : int;
  overdrafts : int;
  replicas_agree : bool;
  aborted_transfers : int;
}

let mode_name = function
  | Catocs_ops -> "catocs-ordered-ops"
  | Transactional -> "transactional"

let sum_balances balances = Array.fold_left ( + ) 0 balances

let pick_transfer rng =
  let from_ = Rng.int rng accounts in
  let to_ = (from_ + 1 + Rng.int rng (accounts - 1)) mod accounts in
  let amount = 1 + Rng.int rng max_amount in
  (from_, to_, amount)

(* ---- CATOCS: each half of a transfer is its own (totally ordered)
   multicast -------------------------------------------------------------- *)

type op_msg =
  | Request of { tx : int; from_ : int; to_ : int; amount : int }
  | Debit of { tx : int; account : int; amount : int }
  | Credit of { tx : int; account : int; amount : int }

let run_catocs () =
  let net = Net.create ~latency () in
  let engine = Engine.create ~seed ~net () in
  let rng = Rng.split (Engine.rng engine) in
  let stacks =
    Stack.create_group ~engine
      ~config:{ Config.default with Config.ordering = Config.Total_sequencer }
      ~names:(List.init replicas (fun i -> Printf.sprintf "bank%d" i)) ()
  in
  let balances =
    Array.init replicas (fun _ -> Array.make accounts initial_balance)
  in
  (* per-replica transfer outcomes; total order makes them identical *)
  let debit_rejected = Array.init replicas (fun _ -> Hashtbl.create 64) in
  let both_applied = Array.init replicas (fun _ -> Hashtbl.create 64) in
  let splits = Array.make replicas 0 in
  (* observer bookkeeping at replica 0: a delivery at which some transfer is
     half-applied shows missing money to anyone who assumes atomicity *)
  let in_flight_amount = ref 0 in
  let conservation_violations = ref 0 in
  let entry_refused = ref 0 in
  Array.iteri
    (fun i stack ->
      Stack.set_callbacks stack
        { Stack.null_callbacks with
          Stack.direct =
            (fun ~src:_ msg ->
              match msg with
              | Request { tx; from_; to_; amount } ->
                (* the funds check happens against this replica's current
                   state: stale by the time the ops are ordered *)
                if balances.(i).(from_) >= amount then begin
                  Stack.multicast stack (Debit { tx; account = from_; amount });
                  Stack.multicast stack (Credit { tx; account = to_; amount })
                end
                else incr entry_refused
              | Debit _ | Credit _ -> ());
          Stack.deliver =
            (fun ~sender:_ msg ->
              (match msg with
               | Debit { tx; account; amount } ->
                 (* state-level constraint applied per message: every
                    replica takes the same decision (total order), but the
                    decision covers only this half of the transfer *)
                 if balances.(i).(account) >= amount then begin
                   balances.(i).(account) <- balances.(i).(account) - amount;
                   if i = 0 then in_flight_amount := !in_flight_amount + amount
                 end
                 else Hashtbl.replace debit_rejected.(i) tx amount
               | Credit { tx; account; amount } ->
                 balances.(i).(account) <- balances.(i).(account) + amount;
                 if Hashtbl.mem debit_rejected.(i) tx then
                   (* the matching debit was refused: money created *)
                   splits.(i) <- splits.(i) + 1
                 else begin
                   Hashtbl.replace both_applied.(i) tx ();
                   if i = 0 then in_flight_amount := !in_flight_amount - amount
                 end
               | Request _ -> ());
              if i = 0 && !in_flight_amount > 0 then
                incr conservation_violations) })
    stacks;
  (* the client endpoint *)
  let client_pid = Engine.spawn engine ~name:"client" (fun _ _ -> ()) in
  let client =
    Endpoint.create ~engine ~self:client_pid ~mode:Config.Bare ()
  in
  for tx = 0 to transfers - 1 do
    let from_, to_, amount = pick_transfer rng in
    let entry = Stack.self stacks.(tx mod replicas) in
    Engine.at engine (Sim_time.add (Sim_time.ms 5) (tx * transfer_interval))
      (fun () ->
        Endpoint.send_direct client ~dst:entry (Request { tx; from_; to_; amount }))
  done;
  Engine.run
    ~until:
      (Sim_time.add (transfers * transfer_interval) (Sim_time.seconds 1))
    engine;
  let expected_total = accounts * initial_balance in
  let final_sum = sum_balances balances.(0) in
  let agree =
    Array.for_all (fun b -> b = balances.(0)) balances
  in
  { mode = Catocs_ops;
    transfers_attempted = transfers;
    transfers_applied = Hashtbl.length both_applied.(0);
    split_transfers = splits.(0);
    conservation_violations = !conservation_violations;
    final_sum_error = abs (final_sum - expected_total);
    overdrafts =
      Array.fold_left (fun acc b -> if b < 0 then acc + 1 else acc) 0 balances.(0);
    replicas_agree = agree;
    aborted_transfers = !entry_refused }

(* ---- transactional: both halves are one atomic transaction --------------- *)

type txn_op = T_debit of int * int | T_credit of int * int

type txn_msg =
  | Client_transfer of { tx : int; from_ : int; to_ : int; amount : int }
  | Tpc_msg of txn_op Tpc.msg

let run_transactional () =
  let net = Net.create ~latency () in
  let engine = Engine.create ~seed ~net () in
  let rng = Rng.split (Engine.rng engine) in
  let balances =
    Array.init replicas (fun _ -> Array.make accounts initial_balance)
  in
  let pids =
    Array.init replicas (fun i ->
        Engine.spawn engine ~name:(Printf.sprintf "bank%d" i) (fun _ _ -> ()))
  in
  let conservation_violations = ref 0 in
  let applied = ref 0 and aborted = ref 0 in
  let expected_total = accounts * initial_balance in
  let nodes =
    Array.init replicas (fun i ->
        Tpc.create_node ~engine ~self:pids.(i) ~inject:(fun m -> Tpc_msg m)
          ~can_apply:(fun ~tx:_ _ -> true)
          ~apply:(fun ~tx:_ ops ->
            List.iter
              (fun op ->
                match op with
                | T_debit (account, amount) ->
                  balances.(i).(account) <- balances.(i).(account) - amount
                | T_credit (account, amount) ->
                  balances.(i).(account) <- balances.(i).(account) + amount)
              ops;
            (* both halves land in one apply: the observer can look at any
               commit boundary and see conservation *)
            if i = 0 && sum_balances balances.(i) <> expected_total then
              incr conservation_violations)
          ())
  in
  (* the primary serialises transfers: funds are checked against committed
     state under that serialisation, so checks are never stale *)
  let primary = 0 in
  let queue = Queue.create () in
  let busy = ref false in
  let rec process_next () =
    if (not !busy) && not (Queue.is_empty queue) then begin
      busy := true;
      let (_tx : int), from_, to_, amount = Queue.pop queue in
      if balances.(primary).(from_) < amount then begin
        incr aborted;
        busy := false;
        process_next ()
      end
      else
        ignore
          (Tpc.submit nodes.(primary)
             ~participants:
               (Array.to_list
                  (Array.map
                     (fun p ->
                       (p, [ T_debit (from_, amount); T_credit (to_, amount) ]))
                     pids))
             ~on_done:(fun ~tx:_ ~committed ->
               if committed then incr applied else incr aborted;
               busy := false;
               process_next ()))
    end
  in
  Array.iteri
    (fun i pid ->
      Engine.set_handler engine pid (fun _ env ->
          match env.Engine.payload with
          | Tpc_msg m -> Tpc.handle nodes.(i) m
          | Client_transfer { tx; from_; to_; amount } ->
            if i = primary then begin
              Queue.push (tx, from_, to_, amount) queue;
              process_next ()
            end))
    pids;
  let client_pid = Engine.spawn engine ~name:"client" (fun _ _ -> ()) in
  for tx = 0 to transfers - 1 do
    let from_, to_, amount = pick_transfer rng in
    Engine.at engine (Sim_time.add (Sim_time.ms 5) (tx * transfer_interval))
      (fun () ->
        Engine.send engine ~src:client_pid ~dst:pids.(primary)
          (Client_transfer { tx; from_; to_; amount }))
  done;
  Engine.run
    ~until:
      (Sim_time.add (transfers * transfer_interval) (Sim_time.seconds 3))
    engine;
  let final_sum = sum_balances balances.(0) in
  { mode = Transactional;
    transfers_attempted = transfers;
    transfers_applied = !applied;
    split_transfers = 0;
    conservation_violations = !conservation_violations;
    final_sum_error = abs (final_sum - expected_total);
    overdrafts =
      Array.fold_left (fun acc b -> if b < 0 then acc + 1 else acc) 0 balances.(0);
    replicas_agree = Array.for_all (fun b -> b = balances.(0)) balances;
    aborted_transfers = !aborted }

let run mode =
  match mode with
  | Catocs_ops -> run_catocs ()
  | Transactional -> run_transactional ()
