(* Tests for the discrete-event simulation substrate. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Rng ----------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 7L and b = Rng.create 7L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_changes_stream () =
  let a = Rng.create 1L and b = Rng.create 2L in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.int64 a <> Rng.int64 b then differs := true
  done;
  check_bool "streams differ" true !differs

let test_rng_int_bounds () =
  let rng = Rng.create 3L in
  for _ = 1 to 1000 do
    let x = Rng.int rng 10 in
    check_bool "in range" true (x >= 0 && x < 10)
  done

let test_rng_uniform_int_bounds () =
  let rng = Rng.create 4L in
  for _ = 1 to 1000 do
    let x = Rng.uniform_int rng 5 9 in
    check_bool "in range" true (x >= 5 && x <= 9)
  done

let test_rng_float_bounds () =
  let rng = Rng.create 5L in
  for _ = 1 to 1000 do
    let x = Rng.float rng 2.5 in
    check_bool "in range" true (x >= 0.0 && x < 2.5)
  done

let test_rng_bool_extremes () =
  let rng = Rng.create 6L in
  for _ = 1 to 100 do
    check_bool "p=0 never true" false (Rng.bool rng 0.0)
  done;
  for _ = 1 to 100 do
    check_bool "p=1 always true" true (Rng.bool rng 1.0)
  done

let test_rng_exponential_positive () =
  let rng = Rng.create 8L in
  for _ = 1 to 1000 do
    check_bool "positive" true (Rng.exponential rng 100.0 > 0.0)
  done

let test_rng_exponential_mean () =
  let rng = Rng.create 9L in
  let n = 20_000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. Rng.exponential rng 50.0
  done;
  let mean = !total /. float_of_int n in
  check_bool "mean near 50" true (mean > 45.0 && mean < 55.0)

let test_rng_split_independent () =
  let parent = Rng.create 10L in
  let child = Rng.split parent in
  check_bool "child differs from parent" true (Rng.int64 child <> Rng.int64 parent)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 11L in
  let a = Array.init 20 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 20 (fun i -> i)) sorted

(* splitmix64's published reference outputs for seed 0: any change of
   representation must leave the stream alone *)
let test_rng_reference_stream () =
  let rng = Rng.create 0L in
  List.iter
    (fun expected -> Alcotest.(check int64) "splitmix64" expected (Rng.int64 rng))
    [ 0xe220a8397b1dcdafL; 0x6e789e6aa1b965f4L; 0x06c45d188009454fL ]

(* Minor words per call of [f], averaged over [calls] calls. *)
let minor_words_per_call ~calls f =
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int calls

let check_alloc_free name words =
  if words >= 0.01 then
    Alcotest.failf "%s allocates %.3f minor words per call" name words

let test_rng_draws_allocation_free () =
  let rng = Rng.create 5L in
  let hits = ref 0 in
  let count b = if b then incr hits in
  check_alloc_free "Rng.int"
    (minor_words_per_call ~calls:10_000 (fun () -> count (Rng.int rng 10 < 5)));
  (* [Rng.float] itself is not checked: its result crosses the module
     boundary boxed unless the caller can inline it. [Rng.bool] is the same
     draw compared in place, so it pins the draw at no allocation. *)
  check_alloc_free "Rng.bool"
    (minor_words_per_call ~calls:10_000 (fun () -> count (Rng.bool rng 0.5)));
  check_alloc_free "Rng.uniform_int"
    (minor_words_per_call ~calls:10_000 (fun () ->
         count (Rng.uniform_int rng 1 6 < 4)));
  check_bool "draws were taken" true (!hits > 0)

(* --- Heap ---------------------------------------------------------------- *)

let test_heap_sorted_extraction () =
  let h = Heap.create ~cmp:Int.compare in
  let rng = Rng.create 12L in
  let n = 500 in
  for _ = 1 to n do
    Heap.push h (Rng.int rng 1000)
  done;
  let prev = ref min_int in
  for _ = 1 to n do
    match Heap.pop h with
    | None -> Alcotest.fail "heap exhausted early"
    | Some x ->
      check_bool "non-decreasing" true (x >= !prev);
      prev := x
  done;
  check_bool "empty at end" true (Heap.is_empty h)

let test_heap_peek_does_not_remove () =
  let h = Heap.create ~cmp:Int.compare in
  Heap.push h 5;
  Heap.push h 3;
  Alcotest.(check (option int)) "peek min" (Some 3) (Heap.peek h);
  check_int "length preserved" 2 (Heap.length h)

let test_heap_pop_empty () =
  let h = Heap.create ~cmp:Int.compare in
  Alcotest.(check (option int)) "pop empty" None (Heap.pop h)

let test_heap_clear () =
  let h = Heap.create ~cmp:Int.compare in
  Heap.push h 1;
  Heap.push h 2;
  Heap.clear h;
  check_bool "cleared" true (Heap.is_empty h)

let test_heap_exn_variants () =
  let h = Heap.create ~cmp:Int.compare in
  Alcotest.check_raises "pop_exn empty" Heap.Empty (fun () ->
      ignore (Heap.pop_exn h));
  Alcotest.check_raises "peek_exn empty" Heap.Empty (fun () ->
      ignore (Heap.peek_exn h));
  Heap.push h 9;
  Heap.push h 4;
  check_int "peek_exn min" 4 (Heap.peek_exn h);
  check_int "pop_exn min" 4 (Heap.pop_exn h);
  check_int "pop_exn next" 9 (Heap.pop_exn h);
  check_bool "empty again" true (Heap.is_empty h)

(* hole-based sifting must agree with plain sorting, duplicates included *)
let test_heap_matches_sort () =
  let rng = Rng.create 21L in
  for _ = 1 to 50 do
    let n = 1 + Rng.int rng 200 in
    let xs = List.init n (fun _ -> Rng.int rng 50) in
    let h = Heap.create ~cmp:Int.compare in
    List.iter (Heap.push h) xs;
    let drained = List.init n (fun _ -> Heap.pop_exn h) in
    Alcotest.(check (list int)) "heap order = sorted order"
      (List.sort Int.compare xs) drained
  done

(* --- Sim_time ------------------------------------------------------------ *)

let test_time_conversions () =
  check_int "ms" 2_000 (Sim_time.ms 2);
  check_int "s" 3_000_000 (Sim_time.seconds 3);
  check_int "add" 1_500 (Sim_time.add (Sim_time.ms 1) (Sim_time.us 500));
  Alcotest.(check (float 1e-9)) "to_ms" 1.5 (Sim_time.to_ms_float 1_500)

let test_time_of_float_floor () =
  check_int "never below 1" 1 (Sim_time.of_float_us 0.0);
  check_int "rounds" 3 (Sim_time.of_float_us 2.6)

(* --- Stats --------------------------------------------------------------- *)

let test_summary_basic () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  check_int "count" 5 (Stats.Summary.count s);
  Alcotest.(check (float 1e-9)) "mean" 3.0 (Stats.Summary.mean s);
  Alcotest.(check (float 1e-9)) "max" 5.0 (Stats.Summary.max s)

let test_summary_add_allocation_free () =
  (* from the very first sample: a summary holds no sample storage to grow *)
  let s = Stats.Summary.create () in
  (* a literal is a static float: the call site boxes nothing *)
  let x = 1234.5 in
  check_alloc_free "Stats.Summary.add"
    (minor_words_per_call ~calls:10_000 (fun () -> Stats.Summary.add s x));
  check_int "count" 10_000 (Stats.Summary.count s)

let test_summary_percentile () =
  (* 1..100 in a scrambled order: the percentile sorts a copy *)
  let samples =
    Array.init 100 (fun i -> float_of_int (((i * 37) mod 100) + 1))
  in
  let before = Array.copy samples in
  (* nearest-rank: rank = round (p * 99), half away from zero *)
  Alcotest.(check (float 0.0)) "p50" 51.0 (Stats.percentile samples 0.5);
  Alcotest.(check (float 0.0)) "p99" 99.0 (Stats.percentile samples 0.99);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.percentile samples 0.0);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Stats.percentile samples 1.0);
  check_bool "input untouched" true (samples = before)

let test_summary_empty () =
  let s = Stats.Summary.create () in
  check_bool "mean nan" true (Float.is_nan (Stats.Summary.mean s));
  check_bool "max nan" true (Float.is_nan (Stats.Summary.max s));
  check_int "count" 0 (Stats.Summary.count s);
  check_bool "percentile nan" true (Float.is_nan (Stats.percentile [||] 0.5));
  check_bool "p0 nan" true (Float.is_nan (Stats.percentile [||] 0.0));
  check_bool "p100 nan" true (Float.is_nan (Stats.percentile [||] 1.0))

let test_summary_single_sample () =
  (* every percentile of a single sample is that sample *)
  let s = Stats.Summary.create () in
  Stats.Summary.add s 42.0;
  check_int "count" 1 (Stats.Summary.count s);
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "p%g" (p *. 100.))
        42.0
        (Stats.percentile [| 42.0 |] p))
    [ 0.0; 0.5; 0.99; 1.0 ];
  Alcotest.(check (float 1e-9)) "mean" 42.0 (Stats.Summary.mean s);
  Alcotest.(check (float 1e-9)) "max" 42.0 (Stats.Summary.max s)

(* --- Net ----------------------------------------------------------------- *)

let test_net_fixed_latency () =
  let net = Net.create ~latency:(Net.Fixed (Sim_time.ms 3)) () in
  let rng = Rng.create 1L in
  for _ = 1 to 10 do
    check_int "fixed" 3000 (Net.sample_delay net rng)
  done

let test_net_uniform_latency_bounds () =
  let net = Net.create ~latency:(Net.Uniform (100, 200)) () in
  let rng = Rng.create 2L in
  for _ = 1 to 1000 do
    let d = Net.sample_delay net rng in
    check_bool "in bounds" true (d >= 100 && d <= 200)
  done

let test_net_exponential_floor () =
  let net =
    Net.create ~latency:(Net.Exponential { mean_us = 500.0; floor = 100 }) ()
  in
  let rng = Rng.create 3L in
  for _ = 1 to 1000 do
    check_bool "above floor" true (Net.sample_delay net rng > 100)
  done

let test_net_partition () =
  let net = Net.create () in
  Net.partition net [ 0; 1 ] [ 2; 3 ];
  check_bool "0->2 blocked" true (Net.blocked net ~src:0 ~dst:2);
  check_bool "2->0 blocked" true (Net.blocked net ~src:2 ~dst:0);
  check_bool "0->1 open" false (Net.blocked net ~src:0 ~dst:1);
  check_bool "2->3 open" false (Net.blocked net ~src:2 ~dst:3);
  Net.heal net;
  check_bool "healed" false (Net.blocked net ~src:0 ~dst:2)

let test_net_drop_probability () =
  let net = Net.create ~drop_probability:1.0 () in
  let rng = Rng.create 4L in
  check_bool "always drops" true (Net.drops net rng);
  Net.set_drop_probability net 0.0;
  check_bool "never drops" false (Net.drops net rng)

(* --- Engine -------------------------------------------------------------- *)

(* Every case that the parallel restrictions allow runs on both
   implementations: [Sequential] (one lane for every process) and
   [Parallel {domains = 1}] (a lane per process; other domain counts only
   repartition the same lanes). *)
let impls =
  [ ("sequential", Engine.Sequential); ("parallel", Engine.Parallel { domains = 1 }) ]

let on_both_impls test () =
  List.iter (fun (label, impl) -> test ~tag:(fun msg -> label ^ ": " ^ msg) impl)
    impls

let test_engine_send_receive ~tag impl =
  let engine =
    Engine.create ~impl ~net:(Net.create ~latency:(Net.Fixed 100) ()) ()
  in
  let received = ref [] in
  let a = Engine.spawn engine ~name:"a" (fun _ _ -> ()) in
  let b =
    Engine.spawn engine ~name:"b" (fun _ env ->
        received := env.Engine.payload :: !received)
  in
  Engine.send engine ~src:a ~dst:b "hello";
  Engine.send engine ~src:a ~dst:b "world";
  Engine.run engine;
  Alcotest.(check (list string)) (tag "both delivered in order")
    [ "hello"; "world" ] (List.rev !received);
  check_int (tag "sent") 2 (Engine.messages_sent engine);
  check_int (tag "delivered") 2 (Engine.messages_delivered engine)

let test_engine_clock_advances ~tag impl =
  let engine =
    Engine.create ~impl ~net:(Net.create ~latency:(Net.Fixed 250) ()) ()
  in
  let a = Engine.spawn engine ~name:"a" (fun _ _ -> ()) in
  let b = Engine.spawn engine ~name:"b" (fun _ env ->
      check_int (tag "recv time") 250 env.Engine.recv_at;
      check_int (tag "clock at delivery") 250 (Engine.now engine)) in
  Engine.send engine ~src:a ~dst:b ();
  Engine.run engine;
  (* after the run [now] is the barrier clock: [Sequential] stops at its
     last event, [Parallel] at the end of the last epoch window (the
     latency floor is 250us, so the event at 250 closes the window at 500) *)
  let expected = match impl with Engine.Sequential -> 250 | Parallel _ -> 500 in
  check_int (tag "clock after the run") expected (Engine.now engine)

let test_engine_timers_in_order ~tag impl =
  let engine = Engine.create ~impl () in
  let order = ref [] in
  Engine.at engine 300 (fun () -> order := 3 :: !order);
  Engine.at engine 100 (fun () -> order := 1 :: !order);
  Engine.at engine 200 (fun () -> order := 2 :: !order);
  Engine.run engine;
  Alcotest.(check (list int)) (tag "fired in time order") [ 1; 2; 3 ]
    (List.rev !order)

let test_engine_tie_break_is_fifo ~tag impl =
  let engine = Engine.create ~impl () in
  let order = ref [] in
  for i = 1 to 5 do
    Engine.at engine 100 (fun () -> order := i :: !order)
  done;
  Engine.run engine;
  Alcotest.(check (list int)) (tag "insertion order at equal times")
    [ 1; 2; 3; 4; 5 ] (List.rev !order)

let test_engine_after_and_every ~tag impl =
  let engine = Engine.create ~impl () in
  let ticks = ref 0 in
  let cancel = Engine.every engine ~start:100 ~period:100 (fun () -> incr ticks) in
  Engine.after engine 450 (fun () -> cancel ());
  Engine.run engine;
  check_int (tag "4 ticks then cancelled") 4 !ticks

let test_engine_crash_drops_messages ~tag impl =
  let engine =
    Engine.create ~impl ~net:(Net.create ~latency:(Net.Fixed 100) ()) ()
  in
  let got = ref 0 in
  let a = Engine.spawn engine ~name:"a" (fun _ _ -> ()) in
  let b = Engine.spawn engine ~name:"b" (fun _ _ -> incr got) in
  Engine.crash engine b;
  Engine.send engine ~src:a ~dst:b ();
  Engine.run engine;
  check_int (tag "nothing delivered to dead process") 0 !got;
  check_bool (tag "b reported dead") false (Engine.is_alive engine b)

let test_engine_crashed_sender_cannot_send ~tag impl =
  let engine = Engine.create ~impl () in
  let got = ref 0 in
  let a = Engine.spawn engine ~name:"a" (fun _ _ -> ()) in
  let b = Engine.spawn engine ~name:"b" (fun _ _ -> incr got) in
  Engine.crash engine a;
  Engine.send engine ~src:a ~dst:b ();
  Engine.run engine;
  check_int (tag "dead sender suppressed") 0 !got

let test_engine_inflight_survives_sender_crash ~tag impl =
  (* a message already on the wire is delivered even if the sender dies *)
  let engine =
    Engine.create ~impl ~net:(Net.create ~latency:(Net.Fixed 500) ()) ()
  in
  let got = ref 0 in
  let a = Engine.spawn engine ~name:"a" (fun _ _ -> ()) in
  let b = Engine.spawn engine ~name:"b" (fun _ _ -> incr got) in
  Engine.send engine ~src:a ~dst:b ();
  Engine.at engine 100 (fun () -> Engine.crash engine a);
  Engine.run engine;
  check_int (tag "in-flight message arrives") 1 !got

let test_engine_failure_detection_delay ~tag impl =
  let net = Net.create ~detection_delay:(Sim_time.ms 10) () in
  let engine = Engine.create ~impl ~net () in
  let a = Engine.spawn engine ~name:"a" (fun _ _ -> ()) in
  let detected_at = ref (-1) in
  Engine.on_failure engine (fun pid ->
      check_int (tag "right pid") a pid;
      detected_at := Engine.now engine);
  Engine.at engine 1000 (fun () -> Engine.crash engine a);
  Engine.run engine;
  check_int (tag "detected after delay") (1000 + 10_000) !detected_at

let test_engine_crash_suppresses_owned_timers ~tag impl =
  let engine = Engine.create ~impl () in
  let fired = ref false in
  let a = Engine.spawn engine ~name:"a" (fun _ _ -> ()) in
  Engine.at engine ~owner:a 500 (fun () -> fired := true);
  Engine.at engine 100 (fun () -> Engine.crash engine a);
  Engine.run engine;
  check_bool (tag "timer suppressed") false !fired

let test_engine_recover ~tag impl =
  let engine =
    Engine.create ~impl ~net:(Net.create ~latency:(Net.Fixed 10) ()) ()
  in
  let got = ref 0 in
  let a = Engine.spawn engine ~name:"a" (fun _ _ -> ()) in
  let b = Engine.spawn engine ~name:"b" (fun _ _ -> incr got) in
  Engine.crash engine b;
  Engine.at engine 100 (fun () -> Engine.recover engine b);
  Engine.at engine 200 (fun () -> Engine.send engine ~src:a ~dst:b ());
  Engine.run engine;
  check_int (tag "delivered after recovery") 1 !got

let test_engine_partition_blocks ~tag impl =
  let net = Net.create ~latency:(Net.Fixed 10) () in
  let engine = Engine.create ~impl ~net () in
  let got = ref 0 in
  let a = Engine.spawn engine ~name:"a" (fun _ _ -> ()) in
  let b = Engine.spawn engine ~name:"b" (fun _ _ -> incr got) in
  Net.partition net [ a ] [ b ];
  Engine.send engine ~src:a ~dst:b ();
  Engine.run engine;
  check_int (tag "blocked by partition") 0 !got;
  check_int (tag "counted dropped") 1 (Engine.messages_dropped engine)

let test_engine_run_until ~tag impl =
  let engine = Engine.create ~impl () in
  let fired = ref false in
  Engine.at engine 1000 (fun () -> fired := true);
  Engine.run ~until:500 engine;
  check_bool (tag "not yet") false !fired;
  check_int (tag "clock stopped at limit") 500 (Engine.now engine);
  Engine.run engine;
  check_bool (tag "fires on resume") true !fired

exception Handler_failed

(* The engine records the lane it is advancing in a domain-local slot that
   [now] reads. An event that raises must not leave that slot set: a later
   engine on the same domain would read the dead lane's clock. *)
let test_engine_raise_restores_clock () =
  List.iter
    (fun (label, impl) ->
      let net = Net.create ~latency:(Net.Fixed 1000) () in
      let engine = Engine.create ~impl ~net () in
      let a = Engine.spawn engine ~name:"a" (fun _ _ -> ()) in
      let b = Engine.spawn engine ~name:"b" (fun _ _ -> raise Handler_failed) in
      Engine.send engine ~src:a ~dst:b ();
      (match Engine.run engine with
       | () -> Alcotest.failf "%s: the handler did not raise" label
       | exception Handler_failed -> ());
      List.iter
        (fun (fresh, fresh_impl) ->
          check_int
            (Printf.sprintf "%s raised; a fresh %s engine starts at 0" label fresh)
            0
            (Engine.now (Engine.create ~impl:fresh_impl ())))
        impls)
    impls

let test_engine_processing_time_serialises () =
  (* three messages arriving together are processed one at a time *)
  let net =
    Net.create ~latency:(Net.Fixed 100) ~processing_time:(Sim_time.us 50) ()
  in
  let engine = Engine.create ~net () in
  let times = ref [] in
  let a = Engine.spawn engine ~name:"a" (fun _ _ -> ()) in
  let b = Engine.spawn engine ~name:"b" (fun _ env ->
      times := env.Engine.recv_at :: !times) in
  for _ = 1 to 3 do
    Engine.send engine ~src:a ~dst:b ()
  done;
  Engine.run engine;
  Alcotest.(check (list int)) "queued behind each other" [ 150; 200; 250 ]
    (List.rev !times)

let test_engine_processing_time_zero_is_passthrough () =
  let net = Net.create ~latency:(Net.Fixed 100) () in
  let engine = Engine.create ~net () in
  let times = ref [] in
  let a = Engine.spawn engine ~name:"a" (fun _ _ -> ()) in
  let b = Engine.spawn engine ~name:"b" (fun _ env ->
      times := env.Engine.recv_at :: !times) in
  for _ = 1 to 3 do
    Engine.send engine ~src:a ~dst:b ()
  done;
  Engine.run engine;
  Alcotest.(check (list int)) "all arrive together" [ 100; 100; 100 ]
    (List.rev !times)

let test_engine_deterministic_replay ~tag impl =
  let run_once seed =
    let net = Net.create ~latency:(Net.Uniform (100, 900)) () in
    let engine = Engine.create ~impl ~seed ~net () in
    let log = ref [] in
    let a = Engine.spawn engine ~name:"a" (fun _ _ -> ()) in
    let b =
      Engine.spawn engine ~name:"b" (fun _ env ->
          log := (env.Engine.payload, Engine.now engine) :: !log)
    in
    for i = 1 to 50 do
      Engine.at engine (i * 10) (fun () -> Engine.send engine ~src:a ~dst:b i)
    done;
    Engine.run engine;
    List.rev !log
  in
  Alcotest.(check (list (pair int int))) (tag "same seed, same run")
    (run_once 99L) (run_once 99L);
  check_bool (tag "different seed, different run") true
    (run_once 99L <> run_once 100L)

(* At one instant, packets and timers run in the order they were scheduled,
   whatever their kind, and a timer whose owner crashed is skipped. The
   scheduling runs in an event on [a]'s lane, so under [Parallel] every
   entry reaches its lane through [a]'s outbox, in emission order. *)
let test_engine_kinds_interleave ~tag impl =
  let latency = 100 in
  let engine =
    Engine.create ~impl ~net:(Net.create ~latency:(Net.Fixed latency) ()) ()
  in
  let log = ref [] in
  let note s = log := s :: !log in
  let a = Engine.spawn engine ~name:"a" (fun _ _ -> ()) in
  let b =
    Engine.spawn engine ~name:"b" (fun _ env -> note env.Engine.payload)
  in
  let c = Engine.spawn engine ~name:"c" (fun _ _ -> ()) in
  Engine.crash engine c;
  Engine.at engine ~owner:a 0 (fun () ->
      Engine.send engine ~src:a ~dst:b "p1";
      Engine.at engine ~owner:b latency (fun () -> note "t1");
      Engine.at engine ~owner:c latency (fun () -> note "crashed owner");
      Engine.send engine ~src:a ~dst:b "p2";
      Engine.at engine ~owner:b latency (fun () -> note "t2");
      Engine.send engine ~src:a ~dst:b "p3");
  Engine.run engine;
  Alcotest.(check (list string)) (tag "insertion order across kinds")
    [ "p1"; "t1"; "p2"; "t2"; "p3" ] (List.rev !log)

(* The engine's event queue against [Heap] over (time, seq) records. Batch 0
   is pushed at setup and batch k by the k-th event to fire, so pushes and
   pops interleave; each push takes the next seq, packets and timers alike.
   A packet lands [queue_latency] after its push, a timer [offset] after
   it, so equal times are common. The engine must fire in the oracle's pop
   order. *)
let queue_latency = 5

let oracle_order batches =
  let heap =
    Heap.create ~cmp:(fun (t1, s1) (t2, s2) ->
        match Int.compare t1 t2 with 0 -> Int.compare s1 s2 | c -> c)
  in
  let pending = ref batches and next_seq = ref 0 and fired = ref [] in
  let take_batch now =
    match !pending with
    | [] -> ()
    | batch :: rest ->
      pending := rest;
      List.iter
        (fun (kind, offset) ->
          let delay = if kind = 0 then queue_latency else offset in
          Heap.push heap (now + delay, !next_seq);
          incr next_seq)
        batch
  in
  take_batch 0;
  while not (Heap.is_empty heap) do
    let time, seq = Heap.pop_exn heap in
    fired := seq :: !fired;
    take_batch time
  done;
  List.rev !fired

let engine_order batches =
  let net = Net.create ~latency:(Net.Fixed queue_latency) () in
  let engine = Engine.create ~net () in
  let a = Engine.spawn engine ~name:"a" (fun _ _ -> ()) in
  let pending = ref batches and next_seq = ref 0 and fired = ref [] in
  let rec take_batch () =
    match !pending with
    | [] -> ()
    | batch :: rest ->
      pending := rest;
      List.iter
        (fun (kind, offset) ->
          let seq = !next_seq in
          incr next_seq;
          let time = Sim_time.add (Engine.now engine) offset in
          match kind with
          | 0 -> Engine.send engine ~src:a ~dst:a seq
          | 1 -> Engine.at engine time (fun () -> fire seq)
          | _ -> Engine.at engine ~owner:a time (fun () -> fire seq))
        batch
  and fire seq =
    fired := seq :: !fired;
    take_batch ()
  in
  Engine.set_handler engine a (fun _ env -> fire env.Engine.payload);
  take_batch ();
  Engine.run engine;
  List.rev !fired

let test_engine_queue_matches_heap =
  (* (kind, offset): 0 a packet, 1 an ownerless timer, 2 an owned timer *)
  let op = QCheck.(pair (int_bound 2) (int_bound (2 * queue_latency))) in
  let batches =
    QCheck.(list_of_size Gen.(0 -- 60) (list_of_size Gen.(0 -- 3) op))
  in
  QCheck.Test.make ~count:300 ~name:"queue pops in Heap's (time, seq) order"
    batches (fun batches -> engine_order batches = oracle_order batches)

(* [Parallel] pop order is a function of the queued entries alone, so a
   workload's delivery log cannot depend on the domain count. Each process
   acts at each of its events (a delivery or an owned timer) by the next op
   of a generated program: send a packet, arm an owned timer, or arm an
   ownerless timer that fires on the control lane and sends on a process's
   behalf. A fixed latency and timer delays of 0 to 2 latencies make
   arrivals and timers tie in time often, across lanes and barriers. Each
   process logs into its own buffer (its events run on its own lane), the
   control lane into another. *)
let order_latency = 10

let order_log ~domains (n, ops) =
  let net = Net.create ~latency:(Net.Fixed order_latency) () in
  let engine = Engine.create ~impl:(Engine.Parallel { domains }) ~net () in
  let ops = Array.of_list ops in
  let logs = Array.init (n + 1) (fun _ -> Buffer.create 256) in
  let events = Array.make n 0 in
  let log p what =
    Printf.bprintf logs.(p) "%d:%s;" (Engine.now engine) what
  in
  let rec act p =
    let k = events.(p) in
    events.(p) <- k + 1;
    if k < 12 && Array.length ops > 0 then begin
      let kind, target, delay = ops.((p + k) mod Array.length ops) in
      let other = (p + target) mod n in
      match kind with
      | 0 -> Engine.send engine ~src:p ~dst:other (p, k)
      | 1 ->
        Engine.after engine ~owner:p delay (fun () ->
            log p (Printf.sprintf "t%d" k);
            act p)
      | _ ->
        Engine.after engine delay (fun () ->
            log n (Printf.sprintf "c%d.%d" p k);
            Engine.send engine ~src:other ~dst:p (other, -k))
    end
  in
  for p = 0 to n - 1 do
    ignore
      (Engine.spawn engine ~name:(string_of_int p) (fun self env ->
           let src, k = env.Engine.payload in
           log self (Printf.sprintf "r%d.%d" src k);
           act self))
  done;
  for p = 0 to n - 1 do
    Engine.at engine ~owner:p 0 (fun () -> act p)
  done;
  Engine.run engine;
  String.concat "\n" (Array.to_list (Array.map Buffer.contents logs))

let test_parallel_order_independent =
  (* (kind, target, delay): 0 a packet, 1 an owned timer, 2 an ownerless
     timer; [target] offsets the peer's pid *)
  let op =
    QCheck.(
      triple (int_bound 2) (int_range 1 5) (int_bound (2 * order_latency)))
  in
  let workload = QCheck.(pair (int_range 2 6) (list_of_size Gen.(1 -- 8) op)) in
  QCheck.Test.make ~count:100 ~name:"parallel logs equal at domains 1/2/4"
    workload (fun w ->
      let d1 = order_log ~domains:1 w in
      d1 = order_log ~domains:2 w && d1 = order_log ~domains:4 w)

(* Minor words per step between the [warm]-th and the [(warm + n)]-th call
   of [step], sampled inside the run so the words [Engine.run] spends on
   entry and exit stay out of the window. [step] answers whether the loop
   goes on; the marks are a float array, stored unboxed. *)
let steady_words ~warm ~n =
  let steps = ref 0 and marks = Array.make 2 0.0 in
  let step () =
    incr steps;
    if !steps = warm then marks.(0) <- Gc.minor_words ()
    else if !steps = warm + n then marks.(1) <- Gc.minor_words ();
    !steps < warm + n
  in
  (step, fun () -> (marks.(1) -. marks.(0)) /. float_of_int n)

(* A send plus its delivery costs the envelope: 6 words, with 64 packets in
   flight over a reordering network. *)
let test_engine_packet_words () =
  let net = Net.create ~latency:(Net.Uniform (100, 900)) () in
  let engine = Engine.create ~net () in
  let step, words = steady_words ~warm:1_000 ~n:10_000 in
  let a = Engine.spawn engine ~name:"a" (fun _ _ -> ()) in
  Engine.set_handler engine a (fun self _ ->
      if step () then Engine.send engine ~src:self ~dst:self ());
  for _ = 1 to 64 do
    Engine.send engine ~src:a ~dst:a ()
  done;
  Engine.run engine;
  let words = words () in
  check_bool (Printf.sprintf "%.2f words per send + delivery <= 6" words) true
    (words <= 6.0)

(* The same on [Parallel {domains = 1}], two processes exchanging messages:
   every packet crosses lanes through an outbox and a barrier, and still
   costs only its envelope. One domain only: OCaml 5's [Gc.minor_words]
   counts the calling domain's allocations. *)
let test_engine_cross_lane_packet_words () =
  let net = Net.create ~latency:(Net.Uniform (100, 900)) () in
  let engine = Engine.create ~impl:(Engine.Parallel { domains = 1 }) ~net () in
  let step, words = steady_words ~warm:1_000 ~n:10_000 in
  let reply self (env : unit Engine.envelope) =
    if step () then Engine.send engine ~src:self ~dst:env.Engine.src ()
  in
  let a = Engine.spawn engine ~name:"a" reply in
  let b = Engine.spawn engine ~name:"b" reply in
  for _ = 1 to 32 do
    Engine.send engine ~src:a ~dst:b ();
    Engine.send engine ~src:b ~dst:a ()
  done;
  Engine.run engine;
  let words = words () in
  check_bool
    (Printf.sprintf "%.2f words per cross-lane send + delivery <= 6" words)
    true (words <= 6.0)

(* An owned timer with a preallocated action costs the caller's [Some]. *)
let test_engine_timer_words () =
  let engine = Engine.create () in
  let rng = Rng.create 8L in
  let step, words = steady_words ~warm:1_000 ~n:10_000 in
  let a = Engine.spawn engine ~name:"a" (fun _ _ -> ()) in
  let rec tick () =
    if step () then
      Engine.at engine ~owner:a
        (Sim_time.add (Engine.now engine) (1 + Rng.int rng 100))
        tick
  in
  for _ = 1 to 64 do
    Engine.at engine ~owner:a 0 tick
  done;
  Engine.run engine;
  let words = words () in
  check_bool (Printf.sprintf "%.2f words per owned timer <= 2" words) true
    (words <= 2.0)

let () =
  Alcotest.run "repro_sim"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed changes stream" `Quick test_rng_seed_changes_stream;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "uniform_int bounds" `Quick test_rng_uniform_int_bounds;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "bool extremes" `Quick test_rng_bool_extremes;
          Alcotest.test_case "exponential positive" `Quick test_rng_exponential_positive;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "reference stream" `Quick test_rng_reference_stream;
          Alcotest.test_case "draws allocation-free" `Quick
            test_rng_draws_allocation_free;
        ] );
      ( "heap",
        [
          Alcotest.test_case "sorted extraction" `Quick test_heap_sorted_extraction;
          Alcotest.test_case "peek" `Quick test_heap_peek_does_not_remove;
          Alcotest.test_case "pop empty" `Quick test_heap_pop_empty;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          Alcotest.test_case "exn variants" `Quick test_heap_exn_variants;
          Alcotest.test_case "matches sort" `Quick test_heap_matches_sort;
        ] );
      ( "time",
        [
          Alcotest.test_case "conversions" `Quick test_time_conversions;
          Alcotest.test_case "of_float floor" `Quick test_time_of_float_floor;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary basic" `Quick test_summary_basic;
          Alcotest.test_case "summary percentile" `Quick test_summary_percentile;
          Alcotest.test_case "summary empty" `Quick test_summary_empty;
          Alcotest.test_case "summary add allocation-free" `Quick
            test_summary_add_allocation_free;
          Alcotest.test_case "summary single sample" `Quick
            test_summary_single_sample;
        ] );
      ( "net",
        [
          Alcotest.test_case "fixed latency" `Quick test_net_fixed_latency;
          Alcotest.test_case "uniform bounds" `Quick test_net_uniform_latency_bounds;
          Alcotest.test_case "exponential floor" `Quick test_net_exponential_floor;
          Alcotest.test_case "partition" `Quick test_net_partition;
          Alcotest.test_case "drop probability" `Quick test_net_drop_probability;
        ] );
      ( "engine",
        [
          Alcotest.test_case "send/receive" `Quick
            (on_both_impls test_engine_send_receive);
          Alcotest.test_case "clock advances" `Quick
            (on_both_impls test_engine_clock_advances);
          Alcotest.test_case "timers in order" `Quick
            (on_both_impls test_engine_timers_in_order);
          Alcotest.test_case "tie-break fifo" `Quick
            (on_both_impls test_engine_tie_break_is_fifo);
          Alcotest.test_case "after/every" `Quick
            (on_both_impls test_engine_after_and_every);
          Alcotest.test_case "crash drops" `Quick
            (on_both_impls test_engine_crash_drops_messages);
          Alcotest.test_case "dead sender" `Quick
            (on_both_impls test_engine_crashed_sender_cannot_send);
          Alcotest.test_case "in-flight survives" `Quick
            (on_both_impls test_engine_inflight_survives_sender_crash);
          Alcotest.test_case "failure detection delay" `Quick
            (on_both_impls test_engine_failure_detection_delay);
          Alcotest.test_case "crash suppresses timers" `Quick
            (on_both_impls test_engine_crash_suppresses_owned_timers);
          Alcotest.test_case "recover" `Quick (on_both_impls test_engine_recover);
          Alcotest.test_case "partition blocks" `Quick
            (on_both_impls test_engine_partition_blocks);
          Alcotest.test_case "run until" `Quick
            (on_both_impls test_engine_run_until);
          Alcotest.test_case "raise restores clock" `Quick
            test_engine_raise_restores_clock;
          Alcotest.test_case "deterministic replay" `Quick
            (on_both_impls test_engine_deterministic_replay);
          Alcotest.test_case "processing time serialises" `Quick
            test_engine_processing_time_serialises;
          Alcotest.test_case "zero processing passthrough" `Quick
            test_engine_processing_time_zero_is_passthrough;
          Alcotest.test_case "kinds interleave in insertion order" `Quick
            (on_both_impls test_engine_kinds_interleave);
          QCheck_alcotest.to_alcotest test_engine_queue_matches_heap;
          QCheck_alcotest.to_alcotest test_parallel_order_independent;
          Alcotest.test_case "send + delivery costs the envelope" `Quick
            test_engine_packet_words;
          Alcotest.test_case "cross-lane send costs the envelope" `Quick
            test_engine_cross_lane_packet_words;
          Alcotest.test_case "owned timer costs its Some" `Quick
            test_engine_timer_words;
        ] );
    ]
