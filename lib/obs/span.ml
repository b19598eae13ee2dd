type t = {
  uid : int;
  origin : int;
  pid : int;
  bytes : int;
  sent_at : Sim_time.t;
  recv_at : Sim_time.t option;
  queued_at : Sim_time.t option;
  delivered_at : Sim_time.t option;
  stable_at : Sim_time.t option;
}

let delta_us a b = Sim_time.to_us (Sim_time.sub b a)

let transit_us t =
  Option.map (fun recv -> delta_us t.sent_at recv) t.recv_at

let ordering_wait_us t =
  match (t.recv_at, t.delivered_at) with
  | Some recv, Some delivered -> Some (delta_us recv delivered)
  | _ -> None

let end_to_end_us t =
  Option.map (fun delivered -> delta_us t.sent_at delivered) t.delivered_at

let stability_lag_us t =
  match (t.delivered_at, t.stable_at) with
  | Some delivered, Some stable -> Some (delta_us delivered stable)
  | _ -> None

(* mutable cell per (uid, pid) during assembly *)
type cell = {
  mutable c_recv : Sim_time.t option;
  mutable c_queued : Sim_time.t option;
  mutable c_delivered : Sim_time.t option;
  mutable c_stable : Sim_time.t option;
}

let of_log log =
  let sends : (int, int * Sim_time.t * int) Hashtbl.t = Hashtbl.create 256 in
  (* (uid, pid) -> cell *)
  let cells : (int * int, cell) Hashtbl.t = Hashtbl.create 256 in
  let cell uid pid =
    match Hashtbl.find_opt cells (uid, pid) with
    | Some c -> c
    | None ->
      let c =
        { c_recv = None; c_queued = None; c_delivered = None; c_stable = None }
      in
      Hashtbl.add cells (uid, pid) c;
      c
  in
  let keep earliest at =
    match earliest with Some _ -> earliest | None -> Some at
  in
  Log.iter log (fun r ->
      match r.Event.event with
      | Event.Span_send { uid; pid; bytes } ->
        if not (Hashtbl.mem sends uid) then
          Hashtbl.add sends uid (pid, r.Event.at, bytes)
      | Event.Span_recv { uid; pid } ->
        let c = cell uid pid in
        c.c_recv <- keep c.c_recv r.Event.at
      | Event.Span_queued { uid; pid } ->
        let c = cell uid pid in
        c.c_queued <- keep c.c_queued r.Event.at
      | Event.Span_delivered { uid; pid } ->
        let c = cell uid pid in
        c.c_delivered <- keep c.c_delivered r.Event.at
      | Event.Span_stable { uid; pid } ->
        let c = cell uid pid in
        c.c_stable <- keep c.c_stable r.Event.at
      | Event.View_flush_start _ | Event.View_flush_end _ | Event.Retransmit _
      | Event.Gauge_sample _ | Event.Hop_send _ -> ());
  Hashtbl.fold
    (fun (uid, pid) c acc ->
      match Hashtbl.find_opt sends uid with
      | None -> acc  (* send fell off the ring: incomplete, drop *)
      | Some (origin, sent_at, bytes) ->
        { uid; origin; pid; bytes; sent_at; recv_at = c.c_recv;
          queued_at = c.c_queued; delivered_at = c.c_delivered;
          stable_at = c.c_stable }
        :: acc)
    cells []
  |> List.sort (fun a b ->
         match Int.compare a.uid b.uid with
         | 0 -> Int.compare a.pid b.pid
         | c -> c)

type flush = {
  f_pid : int;
  f_view_id : int;
  started_at : Sim_time.t;
  ended_at : Sim_time.t option;
}

let flushes_of_log log =
  (* (pid, view_id) -> open start, matched in order *)
  let open_rounds : (int * int, Sim_time.t) Hashtbl.t = Hashtbl.create 16 in
  let done_rev = ref [] in
  Log.iter log (fun r ->
      match r.Event.event with
      | Event.View_flush_start { pid; view_id } ->
        if not (Hashtbl.mem open_rounds (pid, view_id)) then
          Hashtbl.add open_rounds (pid, view_id) r.Event.at
      | Event.View_flush_end { pid; view_id } ->
        (match Hashtbl.find_opt open_rounds (pid, view_id) with
         | Some started_at ->
           Hashtbl.remove open_rounds (pid, view_id);
           done_rev :=
             { f_pid = pid; f_view_id = view_id; started_at;
               ended_at = Some r.Event.at }
             :: !done_rev
         | None -> ())  (* end without a retained start: drop *)
      | Event.Span_send _ | Event.Span_recv _ | Event.Span_queued _
      | Event.Span_delivered _ | Event.Span_stable _ | Event.Retransmit _
      | Event.Gauge_sample _ | Event.Hop_send _ -> ());
  let still_open =
    Hashtbl.fold
      (fun (pid, view_id) started_at acc ->
        { f_pid = pid; f_view_id = view_id; started_at; ended_at = None } :: acc)
      open_rounds []
  in
  List.sort
    (fun a b ->
      match Sim_time.compare a.started_at b.started_at with
      | 0 ->
        (match Int.compare a.f_pid b.f_pid with
         | 0 -> Int.compare a.f_view_id b.f_view_id
         | c -> c)
      | c -> c)
    (still_open @ List.rev !done_rev)
