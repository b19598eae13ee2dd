type config = {
  max_findings_per_kind : int;
  stability_min_samples : int;
  stability_sigma : float;
  stability_median_factor : float;
}

let default_config =
  {
    max_findings_per_kind = 40;
    stability_min_samples = 20;
    stability_sigma = 4.0;
    stability_median_factor = 3.0;
  }

type result = {
  source : string;
  hb : Hb.t;
  findings : Finding.t list;
  stats : (string * Json.t) list;
}

let cap config findings =
  List.filteri (fun i _ -> i < config.max_findings_per_kind) findings

(* The uids of the send and delivery nodes among [nodes], as a set. *)
let node_uids nodes =
  List.sort_uniq Int.compare
    (List.filter_map
       (function
         | Exec.Send_ev u | Exec.Deliver_ev (_, u) -> Some u
         | Exec.Ext_ev _ -> None)
       nodes)

(* --- duplicate deliveries --------------------------------------------------- *)

(* The judge's at-most-once verdict per member. *)
let detect_duplicates config (e : Exec.t) (view : Delivery_judge.exec_view) =
  List.concat_map
    (fun (pid, m) ->
      List.map (fun (uid, n) -> (pid, uid, n)) (Delivery_judge.duplicates m))
    view.members
  |> List.sort compare
  |> List.map (fun (pid, uid, n) ->
         {
           Finding.kind = Finding.Duplicate_uid;
           severity = Finding.Error;
           source = e.exec_label;
           summary =
             Printf.sprintf "uid u%d delivered %d times at %s" uid n
               (Exec.process_name e pid);
           uids = [ uid ];
           pids = [ pid ];
           evidence = [];
         })
  |> cap config

(* --- causal cycle ----------------------------------------------------------- *)

let detect_cycle (e : Exec.t) hb =
  match Hb.find_cycle hb with
  | None -> []
  | Some nodes ->
    [
      {
        Finding.kind = Finding.Causal_cycle;
        severity = Finding.Error;
        source = e.exec_label;
        summary =
          Printf.sprintf "happened-before relation is cyclic (%d-node witness)"
            (List.length nodes);
        uids = node_uids nodes;
        pids = [];
        evidence = List.map (Hb.describe_node e) nodes;
      };
    ]

(* --- causal order ----------------------------------------------------------- *)

let detect_causal_order config (e : Exec.t) hb (view : Delivery_judge.exec_view)
    =
  (* The judge convicts a delivery made before a message in its recorded
     causal past; each kept finding gets the transport-visible
     happened-before path as evidence. Like the checker, this applies only
     when the run claimed a causal (or stronger) discipline: a FIFO-mode run
     is free to invert cross-process causality. Unknown disciplines are
     checked (hand-built executions). *)
  match e.ordering with
  | Some Exec.Fifo_order -> []
  | Some (Exec.Causal_order | Exec.Total_order) | None ->
    let finding pid (v : Delivery_judge.inversion) =
      {
        Finding.kind = Finding.Causal_order;
        severity = Finding.Error;
        source = e.exec_label;
        summary =
          Printf.sprintf
            "%s delivered u%d (position %d) before causally prior u%d (%s)"
            (Exec.process_name e pid) v.uid v.pos v.pred
            (match v.pred_pos with
             | Some p -> Printf.sprintf "position %d" p
             | None -> "never delivered");
        uids = [ v.pred; v.uid ];
        pids = [ pid ];
        evidence = [];
      }
    in
    let evidence (v : Delivery_judge.inversion) =
      match
        Hb.shortest_path hb ~transport_only:true (Exec.Send_ev v.pred)
          (Exec.Send_ev v.uid)
      with
      | Some edges -> List.map (Hb.describe_edge e) edges
      | None -> []
    in
    (* [Finding.compare] ignores evidence: sort and cap first, so only the
       kept findings pay for a path search *)
    List.concat_map
      (fun (pid, m) ->
        List.map
          (fun v -> (finding pid v, v))
          (Delivery_judge.causal_order m ~joined_at:None ~context:view.context
             ~sent_at:view.sent_at))
      view.members
    |> List.sort (fun (a, _) (b, _) -> Finding.compare a b)
    |> cap config
    |> List.map (fun (f, v) -> { f with Finding.evidence = evidence v })

(* --- hidden channels -------------------------------------------------------- *)

(* The uids of the sends at [node] or related to it by [related]. *)
let sends_at_or (e : Exec.t) related node =
  List.filter_map
    (fun (s : Exec.send) ->
      let n = Exec.Send_ev s.uid in
      if n = node || related n then Some s.uid else None)
    e.sends

let detect_hidden_channels config (e : Exec.t) hb
    (view : Delivery_judge.exec_view) =
  let findings =
    List.filter_map
      (fun (c : Exec.channel_edge) ->
        let covered =
          Hb.reaches hb ~transport_only:true c.ch_src c.ch_dst
        in
        if covered then None
        else begin
          (* The constraint exists only out of band. Did any process
             observably order the two sides the wrong way round? Compare
             every send at-or-before the source against every send
             at-or-after the destination, per member. *)
          let ups = sends_at_or e (fun n -> Hb.reaches hb n c.ch_src) c.ch_src in
          let downs = sends_at_or e (Hb.reaches hb c.ch_dst) c.ch_dst in
          let inversion =
            List.find_map
              (fun (pid, m) ->
                List.find_map
                  (fun u ->
                    List.find_map
                      (fun w ->
                        match
                          ( Delivery_judge.position m u,
                            Delivery_judge.position m w )
                        with
                        | Some pu, Some pw when u <> w && pw < pu ->
                          Some (pid, u, w)
                        | _, _ -> None)
                      downs)
                  ups)
              view.members
          in
          let severity, inversion_evidence =
            match inversion with
            | Some (pid, u, w) ->
              ( Finding.Error,
                [
                  Printf.sprintf
                    "observed inversion: %s delivered downstream u%d before \
                     upstream u%d"
                    (Exec.process_name e pid) w u;
                ] )
            | None -> (Finding.Warning, [])
          in
          Some
            {
              Finding.kind = Finding.Hidden_channel;
              severity;
              source = e.exec_label;
              summary =
                Printf.sprintf
                  "ordering constraint via %s is invisible to the transport \
                   (%s must precede %s)"
                  c.ch_label
                  (Hb.describe_node e c.ch_src)
                  (Hb.describe_node e c.ch_dst);
              uids = node_uids [ c.ch_src; c.ch_dst ];
              pids = [];
              evidence =
                (Printf.sprintf "no transport-visible path %s -> %s"
                   (Hb.describe_node e c.ch_src)
                   (Hb.describe_node e c.ch_dst)
                :: inversion_evidence);
            }
        end)
      e.channel_edges
  in
  cap config findings

(* --- false causality -------------------------------------------------------- *)

let detect_false_causality config (e : Exec.t) (view : Delivery_judge.exec_view)
    =
  (* Only meaningful when the run enforced a causal (or stronger) discipline
     and the application declared what it actually depends on. *)
  let enforced =
    match e.ordering with
    | Some Exec.Causal_order | Some Exec.Total_order -> true
    | Some Exec.Fifo_order | None -> false
  in
  let total_context = ref 0 in
  let false_context = ref 0 in
  let declared = ref 0 in
  let findings = ref [] in
  if enforced then
    List.iter
      (fun (s : Exec.send) ->
        match s.semantic with
        | None -> ()
        | Some deps ->
          incr declared;
          total_context := !total_context + List.length s.context;
          let same_sender u =
            match view.send u with
            | Some s' -> s'.sender = s.sender
            | None -> false
          in
          let false_deps =
            List.filter
              (fun u -> u <> s.uid && (not (List.mem u deps)) && not (same_sender u))
              s.context
          in
          if false_deps <> [] then begin
            false_context := !false_context + List.length false_deps;
            findings :=
              {
                Finding.kind = Finding.False_causality;
                severity = Finding.Info;
                source = e.exec_label;
                summary =
                  Printf.sprintf
                    "u%d from %s: %d of %d context entries are false \
                     causality (declared deps: %d)"
                    s.uid
                    (Exec.process_name e s.sender)
                    (List.length false_deps) (List.length s.context)
                    (List.length deps);
                uids = s.uid :: false_deps;
                pids = [ s.sender ];
                evidence =
                  [
                    Printf.sprintf "false context entries: %s"
                      (String.concat ", "
                         (List.map (Printf.sprintf "u%d") false_deps));
                  ];
              }
              :: !findings
          end)
      e.sends;
  let stats =
    [
      ("declared_semantic_sends", Json.Int !declared);
      ("context_entries", Json.Int !total_context);
      ("false_context_entries", Json.Int !false_context);
    ]
  in
  (cap config (List.rev !findings), stats)

(* --- stability lag ---------------------------------------------------------- *)

let detect_stability_lag config (e : Exec.t) (view : Delivery_judge.exec_view) =
  let worst : (int, Sim_time.t) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (d : Exec.delivery) ->
      match view.send d.d_uid with
      | None -> ()
      | Some s ->
        let lag = Sim_time.sub d.d_at s.sent_at in
        (match Hashtbl.find_opt worst d.d_uid with
         | Some prev when Sim_time.compare prev lag >= 0 -> ()
         | Some _ | None -> Hashtbl.replace worst d.d_uid lag))
    e.deliveries;
  let lags = Hashtbl.fold (fun uid lag acc -> (uid, lag) :: acc) worst [] in
  if List.length lags < config.stability_min_samples then []
  else begin
    let values =
      List.map (fun (_, lag) -> float_of_int (Sim_time.to_us lag)) lags
    in
    let n = float_of_int (List.length values) in
    let mean = List.fold_left ( +. ) 0.0 values /. n in
    let var =
      List.fold_left (fun acc v -> acc +. ((v -. mean) ** 2.0)) 0.0 values /. n
    in
    let std = sqrt var in
    let sorted = List.sort Float.compare values in
    let median = List.nth sorted (List.length values / 2) in
    let threshold =
      Float.max
        (mean +. (config.stability_sigma *. std))
        (config.stability_median_factor *. median)
    in
    let outliers =
      List.filter
        (fun (_, lag) -> float_of_int (Sim_time.to_us lag) > threshold)
        lags
      |> List.sort compare
    in
    cap config
      (List.map
         (fun (uid, lag) ->
           {
             Finding.kind = Finding.Stability_lag;
             severity = Finding.Warning;
             source = e.exec_label;
             summary =
               Printf.sprintf
                 "u%d took %dus to reach all deliveries (run median %.0fus, \
                  mean %.0fus)"
                 uid (Sim_time.to_us lag) median mean;
             uids = [ uid ];
             pids = [];
             evidence = [];
           })
         outliers)
  end

(* --- pipeline --------------------------------------------------------------- *)

let analyze ?(config = default_config) (e : Exec.t) =
  let hb = Hb.build e in
  let view = Delivery_judge.of_exec e in
  let duplicates = detect_duplicates config e view in
  let cycle = detect_cycle e hb in
  let order_sensitive =
    if cycle <> [] then []
    else
      detect_causal_order config e hb view
      @ detect_hidden_channels config e hb view
  in
  let false_causality, fc_stats = detect_false_causality config e view in
  let stability = detect_stability_lag config e view in
  let findings =
    List.sort Finding.compare
      (duplicates @ cycle @ order_sensitive @ false_causality @ stability)
  in
  let stats =
    [
      ("processes", Json.Int (List.length e.processes));
      ("sends", Json.Int (List.length e.sends));
      ("deliveries", Json.Int (List.length e.deliveries));
      ("externals", Json.Int (List.length e.externals));
      ("channel_edges", Json.Int (List.length e.channel_edges));
      ("hb_nodes", Json.Int (Hb.node_count hb));
      ("hb_edges", Json.Int (List.length (Hb.edges hb)));
    ]
    @ fc_stats
  in
  { source = e.exec_label; hb; findings; stats }

let all_findings ?(extra = []) results =
  List.concat_map (fun r -> r.findings) results
  @ List.concat_map snd extra
  |> List.sort Finding.compare

let report_json ~mode ?(extra = []) results =
  let sources =
    List.map (fun r -> (r.source, r.stats)) results
    @ List.map (fun (name, _) -> (name, [])) extra
  in
  Finding.report_to_json ~mode ~sources (all_findings ~extra results)

let worst_severity findings =
  List.fold_left
    (fun acc (f : Finding.t) ->
      match acc with
      | None -> Some f.severity
      | Some s ->
        if Finding.compare_severity f.severity s > 0 then Some f.severity
        else acc)
    None findings
