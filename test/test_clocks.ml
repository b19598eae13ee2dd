(* Tests for logical clocks: Lamport, vector, matrix, and the causality DAG.
   Property-based tests check the algebraic laws the protocols rely on. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Lamport ------------------------------------------------------------- *)

let test_lamport_tick_monotone () =
  let c = Lamport.create () in
  check_int "first tick" 1 (Lamport.tick c);
  check_int "second tick" 2 (Lamport.tick c);
  check_int "value" 2 (Lamport.value c)

let test_lamport_observe_advances () =
  let c = Lamport.create () in
  ignore (Lamport.tick c);
  check_int "jump past remote" 11 (Lamport.observe c 10);
  check_int "stale remote still advances" 12 (Lamport.observe c 3)

let test_lamport_stamp_total_order () =
  let c1 = Lamport.create () and c2 = Lamport.create () in
  let s1 = Lamport.stamp c1 ~node:0 in
  let s2 = Lamport.stamp c2 ~node:1 in
  (* equal times: node id breaks the tie *)
  check_bool "tie broken by node" true (Lamport.compare_stamp s1 s2 < 0);
  let s3 = Lamport.stamp c1 ~node:0 in
  check_bool "later time wins" true (Lamport.compare_stamp s2 s3 < 0)

let test_lamport_send_receive_ordering () =
  (* receiving a stamp then stamping again yields a strictly later stamp *)
  let sender = Lamport.create () and receiver = Lamport.create () in
  let sent = Lamport.stamp sender ~node:0 in
  ignore (Lamport.observe receiver sent.Lamport.time);
  let reply = Lamport.stamp receiver ~node:1 in
  check_bool "reply after original" true (Lamport.compare_stamp sent reply < 0)

(* --- Vector clocks ------------------------------------------------------- *)

let vc_of = Vector_clock.of_list

let test_vc_compare_cases () =
  let check_order name expected a b =
    let result = Vector_clock.compare_causal (vc_of a) (vc_of b) in
    check_bool name true (result = expected)
  in
  check_order "equal" Vector_clock.Equal [ 1; 2 ] [ 1; 2 ];
  check_order "before" Vector_clock.Before [ 1; 2 ] [ 1; 3 ];
  check_order "after" Vector_clock.After [ 2; 2 ] [ 1; 2 ];
  check_order "concurrent" Vector_clock.Concurrent [ 2; 1 ] [ 1; 2 ]

let test_vc_deliverable_basic () =
  (* local [1;0]; next from sender 0 must be seq 2 with no unseen deps *)
  let local = vc_of [ 1; 0 ] in
  check_bool "in-order deliverable" true
    (Vector_clock.deliverable ~sender:0 ~msg:(vc_of [ 2; 0 ]) ~local);
  check_bool "gap blocks" false
    (Vector_clock.deliverable ~sender:0 ~msg:(vc_of [ 3; 0 ]) ~local);
  check_bool "unseen dependency blocks" false
    (Vector_clock.deliverable ~sender:0 ~msg:(vc_of [ 2; 1 ]) ~local);
  check_bool "duplicate not deliverable" false
    (Vector_clock.deliverable ~sender:0 ~msg:(vc_of [ 1; 0 ]) ~local)

let test_vc_missing_dependencies () =
  let local = vc_of [ 1; 0; 0 ] in
  let msg = vc_of [ 3; 2; 0 ] in
  Alcotest.(check (list (pair int int))) "blockers"
    [ (0, 3); (1, 2) ]
    (Vector_clock.missing_dependencies ~sender:0 ~msg ~local)

let test_vc_first_scans () =
  let local = vc_of [ 1; 0; 4; 2 ] in
  let msg = vc_of [ 3; 2; 1; 5 ] in
  let check name want got = Alcotest.(check int) name want got in
  check "first lacked dependency" 1
    (Vector_clock.first_exceeding msg local ~from:0 ~skip:0);
  check "resumes at from" 3
    (Vector_clock.first_exceeding msg local ~from:2 ~skip:0);
  check "skips the sender" (-1)
    (Vector_clock.first_exceeding msg local ~from:3 ~skip:3);
  check "shorter clock bounds the scan" (-1)
    (Vector_clock.first_exceeding msg (vc_of [ 3 ]) ~from:0 ~skip:(-1));
  check "first difference" 0
    (Vector_clock.first_difference msg local ~from:0);
  check "equal clocks" (-1)
    (Vector_clock.first_difference local (Vector_clock.copy local) ~from:0)

let test_vc_merge () =
  let a = vc_of [ 1; 5; 2 ] in
  Vector_clock.merge_into a (vc_of [ 3; 1; 2 ]);
  Alcotest.(check (list int)) "componentwise max" [ 3; 5; 2 ] (Vector_clock.to_list a)

let test_vc_copy_independent () =
  let a = vc_of [ 1; 2 ] in
  let b = Vector_clock.copy a in
  Vector_clock.tick b 0;
  check_int "original untouched" 1 (Vector_clock.get a 0);
  check_int "copy ticked" 2 (Vector_clock.get b 0)

let test_vc_encoded_size () =
  check_int "4 bytes per entry" 12 (Vector_clock.encoded_size_bytes (vc_of [ 0; 0; 0 ]))

(* qcheck generators *)

let gen_vc n = QCheck.Gen.(array_size (return n) (int_bound 20))

let arb_vc_pair =
  QCheck.make
    ~print:(fun (a, b) ->
      Format.asprintf "%a / %a" Vector_clock.pp (Vector_clock.of_list (Array.to_list a))
        Vector_clock.pp (Vector_clock.of_list (Array.to_list b)))
    QCheck.Gen.(pair (gen_vc 4) (gen_vc 4))

let prop_vc_compare_antisymmetric =
  QCheck.Test.make ~name:"vc compare antisymmetric" ~count:500 arb_vc_pair
    (fun (a, b) ->
      let a = Vector_clock.of_list (Array.to_list a) in
      let b = Vector_clock.of_list (Array.to_list b) in
      match (Vector_clock.compare_causal a b, Vector_clock.compare_causal b a) with
      | Vector_clock.Before, Vector_clock.After
      | Vector_clock.After, Vector_clock.Before
      | Vector_clock.Equal, Vector_clock.Equal
      | Vector_clock.Concurrent, Vector_clock.Concurrent -> true
      | _ -> false)

let prop_vc_merge_upper_bound =
  QCheck.Test.make ~name:"merge is least upper bound" ~count:500 arb_vc_pair
    (fun (a, b) ->
      let a = Vector_clock.of_list (Array.to_list a) in
      let b = Vector_clock.of_list (Array.to_list b) in
      let m = Vector_clock.copy a in
      Vector_clock.merge_into m b;
      Vector_clock.leq a m && Vector_clock.leq b m)

let prop_vc_merge_commutative =
  QCheck.Test.make ~name:"merge commutative" ~count:500 arb_vc_pair
    (fun (a, b) ->
      let a = Vector_clock.of_list (Array.to_list a) in
      let b = Vector_clock.of_list (Array.to_list b) in
      let ab = Vector_clock.copy a in
      Vector_clock.merge_into ab b;
      let ba = Vector_clock.copy b in
      Vector_clock.merge_into ba a;
      Vector_clock.equal ab ba)

let prop_vc_tick_strictly_after =
  QCheck.Test.make ~name:"tick yields strictly later clock" ~count:500
    (QCheck.make QCheck.Gen.(pair (gen_vc 4) (int_bound 3)))
    (fun (a, i) ->
      let a = Vector_clock.of_list (Array.to_list a) in
      let b = Vector_clock.copy a in
      Vector_clock.tick b i;
      Vector_clock.compare_causal a b = Vector_clock.Before)

let prop_vc_deliverable_implies_not_yet_seen =
  QCheck.Test.make ~name:"deliverable message is new" ~count:500 arb_vc_pair
    (fun (local, msg) ->
      let local = Vector_clock.of_list (Array.to_list local) in
      let msg = Vector_clock.of_list (Array.to_list msg) in
      let any_deliverable = ref false in
      for sender = 0 to 3 do
        if Vector_clock.deliverable ~sender ~msg ~local then any_deliverable := true
      done;
      (* if deliverable by any sender, msg cannot be <= local *)
      (not !any_deliverable) || not (Vector_clock.leq msg local))

(* Lamport properties: the algebraic laws total-order release relies on. *)

let prop_lamport_observe_dominates =
  QCheck.Test.make ~name:"observe exceeds both local and remote" ~count:500
    (QCheck.make QCheck.Gen.(pair (int_bound 50) (int_bound 1000)))
    (fun (ticks, remote) ->
      let c = Lamport.create () in
      for _ = 1 to ticks do
        ignore (Lamport.tick c)
      done;
      let local = Lamport.value c in
      let v = Lamport.observe c remote in
      v > local && v > remote)

let prop_lamport_events_monotone =
  (* any interleaving of ticks and observes yields strictly increasing
     values — the clock never runs backwards *)
  QCheck.Test.make ~name:"event sequence strictly monotone" ~count:500
    (QCheck.make QCheck.Gen.(small_list (int_bound 100)))
    (fun events ->
      let c = Lamport.create () in
      let ok = ref true in
      let prev = ref (Lamport.value c) in
      List.iter
        (fun e ->
          let v = if e mod 2 = 0 then Lamport.tick c else Lamport.observe c e in
          if v <= !prev then ok := false;
          prev := v)
        events;
      !ok)

let prop_lamport_stamp_total_order_laws =
  (* compare_stamp is a strict total order: antisymmetric, transitive, and
     zero only on identical stamps *)
  QCheck.Test.make ~name:"compare_stamp total-order laws" ~count:500
    (QCheck.make
       QCheck.Gen.(
         triple
           (pair (int_bound 30) (int_bound 3))
           (pair (int_bound 30) (int_bound 3))
           (pair (int_bound 30) (int_bound 3))))
    (fun ((t1, n1), (t2, n2), (t3, n3)) ->
      let s1 = { Lamport.time = t1; node = n1 } in
      let s2 = { Lamport.time = t2; node = n2 } in
      let s3 = { Lamport.time = t3; node = n3 } in
      let sign x = compare x 0 in
      let antisym =
        sign (Lamport.compare_stamp s1 s2) = -sign (Lamport.compare_stamp s2 s1)
      in
      let zero_iff_equal =
        Lamport.compare_stamp s1 s2 = 0 = (s1 = s2)
      in
      let transitive =
        if Lamport.compare_stamp s1 s2 < 0 && Lamport.compare_stamp s2 s3 < 0
        then Lamport.compare_stamp s1 s3 < 0
        else true
      in
      antisym && zero_iff_equal && transitive)

(* Matrix clock properties: stability detection must be exactly the
   all-rows-cover condition, and row updates must be merges (lub), never
   overwrites — gossip arrives out of order. *)

let gen_rows =
  (* 3x3 matrix as a list of (row index, vector) updates, possibly
     repeating rows so merges actually happen *)
  QCheck.Gen.(small_list (pair (int_bound 2) (gen_vc 3)))

let apply_updates updates =
  let m = Matrix_clock.create 3 in
  List.iter
    (fun (i, v) -> Matrix_clock.update_row m i (Vector_clock.of_list (Array.to_list v)))
    updates;
  m

let prop_matrix_update_is_lub =
  QCheck.Test.make ~name:"update_row merges (lub of all updates)" ~count:500
    (QCheck.make gen_rows)
    (fun updates ->
      let m = apply_updates updates in
      (* each row dominates every vector merged into it *)
      List.for_all
        (fun (i, v) ->
          Vector_clock.leq (Vector_clock.of_list (Array.to_list v)) (Matrix_clock.row m i))
        updates)

let prop_matrix_min_component =
  QCheck.Test.make ~name:"min_component is column minimum" ~count:500
    (QCheck.make gen_rows)
    (fun updates ->
      let m = apply_updates updates in
      let ok = ref true in
      for s = 0 to 2 do
        let expected =
          List.fold_left
            (fun acc i -> min acc (Vector_clock.get (Matrix_clock.row m i) s))
            max_int [ 0; 1; 2 ]
        in
        if Matrix_clock.min_component m s <> expected then ok := false
      done;
      !ok)

let prop_matrix_stable_iff_min =
  QCheck.Test.make ~name:"stable iff min_component covers seq" ~count:500
    (QCheck.make QCheck.Gen.(pair gen_rows (pair (int_bound 2) (int_range 1 25))))
    (fun (updates, (sender, seq)) ->
      let m = apply_updates updates in
      Matrix_clock.stable m ~sender ~seq = (Matrix_clock.min_component m sender >= seq))

let test_vc_no_missing_when_deliverable () =
  let local = vc_of [ 1; 2 ] in
  let msg = vc_of [ 2; 2 ] in
  Alcotest.(check (list (pair int int))) "nothing blocking" []
    (Vector_clock.missing_dependencies ~sender:0 ~msg ~local)

let test_vc_invalid_sizes_rejected () =
  Alcotest.check_raises "empty clock" (Invalid_argument "Vector_clock.create: size must be positive")
    (fun () -> ignore (Vector_clock.create 0));
  Alcotest.check_raises "merge size mismatch"
    (Invalid_argument "Vector_clock.merge_into: size mismatch")
    (fun () -> Vector_clock.merge_into (vc_of [ 1 ]) (vc_of [ 1; 2 ]))

(* --- Matrix clocks ------------------------------------------------------- *)

let test_matrix_stability () =
  let m = Matrix_clock.create 3 in
  (* message seq 1 from sender 0 *)
  check_bool "initially unstable" false (Matrix_clock.stable m ~sender:0 ~seq:1);
  Matrix_clock.update_row m 0 (vc_of [ 1; 0; 0 ]);
  Matrix_clock.update_row m 1 (vc_of [ 1; 0; 0 ]);
  check_bool "still one member missing" false (Matrix_clock.stable m ~sender:0 ~seq:1);
  Matrix_clock.update_row m 2 (vc_of [ 1; 0; 0 ]);
  check_bool "stable once all rows cover it" true
    (Matrix_clock.stable m ~sender:0 ~seq:1)

let test_matrix_min_component () =
  let m = Matrix_clock.create 2 in
  Matrix_clock.update_row m 0 (vc_of [ 5; 2 ]);
  Matrix_clock.update_row m 1 (vc_of [ 3; 4 ]);
  check_int "min of column 0" 3 (Matrix_clock.min_component m 0);
  check_int "min of column 1" 2 (Matrix_clock.min_component m 1)

let test_matrix_rows_monotone () =
  let m = Matrix_clock.create 2 in
  Matrix_clock.update_row m 0 (vc_of [ 5; 5 ]);
  Matrix_clock.update_row m 0 (vc_of [ 3; 7 ]);
  Alcotest.(check (list int)) "merge, not overwrite" [ 5; 7 ]
    (Vector_clock.to_list (Matrix_clock.row m 0))

(* cached-minima bookkeeping: the [advanced] callback must fire exactly for
   the columns whose minimum increased, and the cache must survive merges
   that lower no component (row "overwrites") and stale rows *)

let tracked m i vc =
  let advanced = ref [] in
  Matrix_clock.update_row_tracked m i (vc_of vc) ~advanced:(fun s ->
      advanced := s :: !advanced);
  List.sort Int.compare !advanced

let test_matrix_tracked_advance () =
  let m = Matrix_clock.create 3 in
  Alcotest.(check (list int)) "rows 1,2 still at zero" []
    (tracked m 0 [ 2; 1; 0 ]);
  Alcotest.(check (list int)) "row 2 still at zero" []
    (tracked m 1 [ 1; 1; 0 ]);
  Alcotest.(check (list int)) "columns 0 and 1 cross together" [ 0; 1 ]
    (tracked m 2 [ 3; 1; 0 ]);
  check_int "column 0 minimum" 1 (Matrix_clock.min_component m 0);
  check_int "column 1 minimum" 1 (Matrix_clock.min_component m 1);
  check_int "column 2 minimum" 0 (Matrix_clock.min_component m 2)

let test_matrix_tracked_row_overwrite () =
  (* merging a vector that is lower in some components must neither lower
     the cached minima nor fire the callback for untouched columns *)
  let m = Matrix_clock.create 3 in
  ignore (tracked m 0 [ 2; 1; 0 ]);
  ignore (tracked m 1 [ 1; 1; 0 ]);
  ignore (tracked m 2 [ 3; 1; 0 ]);
  Alcotest.(check (list int)) "lower components ignored by merge" []
    (tracked m 0 [ 1; 0; 5 ]);
  Alcotest.(check (list int)) "row kept componentwise max" [ 2; 1; 5 ]
    (Vector_clock.to_list (Matrix_clock.row m 0));
  check_int "column 2 minimum still pinned by rows 1,2" 0
    (Matrix_clock.min_component m 2)

let test_matrix_tracked_stale_row () =
  let m = Matrix_clock.create 2 in
  ignore (tracked m 0 [ 3; 2 ]);
  ignore (tracked m 1 [ 3; 2 ]);
  Alcotest.(check (list int)) "dominated update advances nothing" []
    (tracked m 1 [ 2; 1 ]);
  check_int "column 0 minimum unchanged" 3 (Matrix_clock.min_component m 0);
  check_int "column 1 minimum unchanged" 2 (Matrix_clock.min_component m 1)

let test_matrix_tracked_singleton () =
  (* a single-process group: every own-row advance is immediately the
     column minimum, so stability tracks the row directly *)
  let m = Matrix_clock.create 1 in
  check_bool "seq 1 initially unstable" false
    (Matrix_clock.stable m ~sender:0 ~seq:1);
  Alcotest.(check (list int)) "first advance" [ 0 ] (tracked m 0 [ 1 ]);
  check_bool "seq 1 stable" true (Matrix_clock.stable m ~sender:0 ~seq:1);
  Alcotest.(check (list int)) "second advance" [ 0 ] (tracked m 0 [ 2 ]);
  check_int "minimum is the row" 2 (Matrix_clock.min_component m 0)

let test_matrix_update_size_mismatch () =
  let m = Matrix_clock.create 2 in
  Alcotest.check_raises "size mismatch rejected"
    (Invalid_argument "Matrix_clock.update_row: size mismatch") (fun () ->
      Matrix_clock.update_row m 0 (vc_of [ 1; 2; 3 ]))

(* --- Causality DAG ------------------------------------------------------- *)

let test_causality_precedes_transitive () =
  let g = Causality.create () in
  Causality.add_message g ~id:1 ~deps:[];
  Causality.add_message g ~id:2 ~deps:[ 1 ];
  Causality.add_message g ~id:3 ~deps:[ 2 ];
  check_bool "direct" true (Causality.precedes g 1 2);
  check_bool "transitive" true (Causality.precedes g 1 3);
  check_bool "not reflexive" false (Causality.precedes g 1 1);
  check_bool "not symmetric" false (Causality.precedes g 3 1)

let test_causality_concurrent () =
  let g = Causality.create () in
  Causality.add_message g ~id:1 ~deps:[];
  Causality.add_message g ~id:2 ~deps:[];
  Causality.add_message g ~id:3 ~deps:[ 1; 2 ];
  check_bool "independent are concurrent" true (Causality.concurrent g 1 2);
  check_bool "joined not concurrent" false (Causality.concurrent g 1 3)

let test_causality_counts () =
  let g = Causality.create () in
  Causality.add_message g ~id:1 ~deps:[];
  Causality.add_message g ~id:2 ~deps:[ 1 ];
  Causality.add_message g ~id:3 ~deps:[ 1; 2 ];
  check_int "nodes" 3 (Causality.live_nodes g);
  check_int "live arcs" 3 (Causality.live_arcs g);
  check_int "total arcs" 3 (Causality.total_arcs_added g)

let test_causality_remove_stable () =
  let g = Causality.create () in
  Causality.add_message g ~id:1 ~deps:[];
  Causality.add_message g ~id:2 ~deps:[ 1 ];
  Causality.remove_stable g 1;
  check_int "node gone" 1 (Causality.live_nodes g);
  check_int "arcs gone" 0 (Causality.live_arcs g);
  check_int "total preserved" 1 (Causality.total_arcs_added g);
  check_bool "no longer precedes" false (Causality.precedes g 1 2)

let test_causality_dep_on_stable_counted () =
  let g = Causality.create () in
  Causality.add_message g ~id:1 ~deps:[];
  Causality.remove_stable g 1;
  Causality.add_message g ~id:2 ~deps:[ 1 ];
  check_int "arc counted though stable" 1 (Causality.total_arcs_added g);
  check_int "but not live" 0 (Causality.live_arcs g)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_vc_compare_antisymmetric;
      prop_vc_merge_upper_bound;
      prop_vc_merge_commutative;
      prop_vc_tick_strictly_after;
      prop_vc_deliverable_implies_not_yet_seen;
    ]

let lamport_qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_lamport_observe_dominates;
      prop_lamport_events_monotone;
      prop_lamport_stamp_total_order_laws;
    ]

let matrix_qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_matrix_update_is_lub;
      prop_matrix_min_component;
      prop_matrix_stable_iff_min;
    ]

let () =
  Alcotest.run "repro_clocks"
    [
      ( "lamport",
        [
          Alcotest.test_case "tick monotone" `Quick test_lamport_tick_monotone;
          Alcotest.test_case "observe advances" `Quick test_lamport_observe_advances;
          Alcotest.test_case "stamp total order" `Quick test_lamport_stamp_total_order;
          Alcotest.test_case "send/receive ordering" `Quick
            test_lamport_send_receive_ordering;
        ] );
      ( "vector",
        [
          Alcotest.test_case "compare cases" `Quick test_vc_compare_cases;
          Alcotest.test_case "deliverable basic" `Quick test_vc_deliverable_basic;
          Alcotest.test_case "missing deps" `Quick test_vc_missing_dependencies;
          Alcotest.test_case "first scans" `Quick test_vc_first_scans;
          Alcotest.test_case "merge" `Quick test_vc_merge;
          Alcotest.test_case "copy independent" `Quick test_vc_copy_independent;
          Alcotest.test_case "encoded size" `Quick test_vc_encoded_size;
          Alcotest.test_case "no missing when deliverable" `Quick
            test_vc_no_missing_when_deliverable;
          Alcotest.test_case "invalid sizes rejected" `Quick
            test_vc_invalid_sizes_rejected;
        ] );
      ("vector-properties", qcheck_cases);
      ("lamport-properties", lamport_qcheck_cases);
      ("matrix-properties", matrix_qcheck_cases);
      ( "matrix",
        [
          Alcotest.test_case "stability" `Quick test_matrix_stability;
          Alcotest.test_case "min component" `Quick test_matrix_min_component;
          Alcotest.test_case "rows monotone" `Quick test_matrix_rows_monotone;
          Alcotest.test_case "tracked advance" `Quick test_matrix_tracked_advance;
          Alcotest.test_case "tracked row overwrite" `Quick
            test_matrix_tracked_row_overwrite;
          Alcotest.test_case "tracked stale row" `Quick
            test_matrix_tracked_stale_row;
          Alcotest.test_case "tracked singleton group" `Quick
            test_matrix_tracked_singleton;
          Alcotest.test_case "update size mismatch" `Quick
            test_matrix_update_size_mismatch;
        ] );
      ( "causality",
        [
          Alcotest.test_case "precedes transitive" `Quick
            test_causality_precedes_transitive;
          Alcotest.test_case "concurrent" `Quick test_causality_concurrent;
          Alcotest.test_case "counts" `Quick test_causality_counts;
          Alcotest.test_case "remove stable" `Quick test_causality_remove_stable;
          Alcotest.test_case "dep on stable counted" `Quick
            test_causality_dep_on_stable_counted;
        ] );
    ]
