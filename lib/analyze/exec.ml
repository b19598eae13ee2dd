type ordering_discipline = Fifo_order | Causal_order | Total_order

type node =
  | Send_ev of int
  | Deliver_ev of int * int
  | Ext_ev of int

type send = {
  uid : int;
  sender : int;
  sender_seq : int;
  sent_at : Sim_time.t;
  send_pseq : int;
  context : int list;
  semantic : int list option;
  label : string;
}

type delivery = {
  d_pid : int;
  d_uid : int;
  d_at : Sim_time.t;
  d_pseq : int;
}

type ext_event = {
  ext_id : int;
  ext_pid : int;
  ext_at : Sim_time.t;
  ext_label : string;
  ext_pseq : int;
}

type channel_edge = {
  ch_src : node;
  ch_dst : node;
  ch_label : string;
}

type t = {
  exec_label : string;
  ordering : ordering_discipline option;
  processes : (int * string) list;
  sends : send list;
  deliveries : delivery list;
  externals : ext_event list;
  channel_edges : channel_edge list;
}

let process_name t pid =
  match List.assoc_opt pid t.processes with
  | Some name -> name
  | None -> Printf.sprintf "p%d" pid

let find_send t uid = List.find_opt (fun s -> s.uid = uid) t.sends

module Recorder = struct
  (* Per-process recording state: program-order counter plus the sender's
     potential-causality context (uids delivered or sent so far), mirroring
     what Oracle.note_send captures for checker runs. *)
  type proc = {
    mutable name : string;
    mutable pseq : int;
    mutable known : int list;  (* reverse order, may repeat *)
    mutable sent_count : int;
  }

  type t = {
    label : string;
    r_ordering : ordering_discipline option;
    procs : (int, proc) Hashtbl.t;
    mutable next_uid : int;
    mutable next_ext : int;
    mutable sends_rev : send list;
    mutable deliveries_rev : delivery list;
    mutable externals_rev : ext_event list;
    mutable channels_rev : channel_edge list;
  }

  let create ?ordering ~label () =
    {
      label;
      r_ordering = ordering;
      procs = Hashtbl.create 8;
      next_uid = 0;
      next_ext = 0;
      sends_rev = [];
      deliveries_rev = [];
      externals_rev = [];
      channels_rev = [];
    }

  let proc t pid =
    match Hashtbl.find_opt t.procs pid with
    | Some p -> p
    | None ->
      let p =
        { name = Printf.sprintf "p%d" pid; pseq = 0; known = []; sent_count = 0 }
      in
      Hashtbl.add t.procs pid p;
      p

  let add_process t ~pid ~name = (proc t pid).name <- name

  let next_pseq p =
    let s = p.pseq in
    p.pseq <- s + 1;
    s

  let note_send t ?semantic ?label ~sender ~at () =
    let p = proc t sender in
    let uid = t.next_uid in
    t.next_uid <- uid + 1;
    let context = List.sort_uniq Int.compare p.known in
    let label =
      match label with Some l -> l | None -> Printf.sprintf "u%d" uid
    in
    let entry =
      {
        uid;
        sender;
        sender_seq = p.sent_count;
        sent_at = at;
        send_pseq = next_pseq p;
        context;
        semantic;
        label;
      }
    in
    p.sent_count <- p.sent_count + 1;
    p.known <- uid :: p.known;
    t.sends_rev <- entry :: t.sends_rev;
    uid

  let note_delivery t ~pid ~uid ~at =
    let p = proc t pid in
    let entry = { d_pid = pid; d_uid = uid; d_at = at; d_pseq = next_pseq p } in
    p.known <- uid :: p.known;
    t.deliveries_rev <- entry :: t.deliveries_rev

  let note_external t ~pid ~at ~label =
    let p = proc t pid in
    let ext_id = t.next_ext in
    t.next_ext <- ext_id + 1;
    let entry =
      { ext_id; ext_pid = pid; ext_at = at; ext_label = label; ext_pseq = next_pseq p }
    in
    t.externals_rev <- entry :: t.externals_rev

  let note_channel t ~src ~dst ~label =
    t.channels_rev <- { ch_src = src; ch_dst = dst; ch_label = label } :: t.channels_rev

  let note_order_requirement t ~before ~after ~via =
    note_channel t ~src:(Send_ev before) ~dst:(Send_ev after) ~label:via

  let exec t =
    let processes =
      Hashtbl.fold (fun pid p acc -> (pid, p.name) :: acc) t.procs []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    in
    {
      exec_label = t.label;
      ordering = t.r_ordering;
      processes;
      sends = List.rev t.sends_rev;
      deliveries = List.rev t.deliveries_rev;
      externals = List.rev t.externals_rev;
      channel_edges = List.rev t.channels_rev;
    }
end

let of_log ?(label = "obs log") ?ordering ?(names = []) log =
  let r = Recorder.create ?ordering ~label () in
  List.iter (fun (pid, name) -> Recorder.add_process r ~pid ~name) names;
  (* obs uid -> recorder uid: the log's ids are wire msg ids, the
     recorder allocates its own dense sequence *)
  let uids : (int, int) Hashtbl.t = Hashtbl.create 64 in
  Repro_obs.Log.iter log (fun { Repro_obs.Event.at; event; _ } ->
      match event with
      | Repro_obs.Event.Span_send { uid; pid; bytes = _ } ->
        Hashtbl.replace uids uid (Recorder.note_send r ~sender:pid ~at ())
      | Repro_obs.Event.Span_delivered { uid; pid } ->
        (match Hashtbl.find_opt uids uid with
         | Some u -> Recorder.note_delivery r ~pid ~uid:u ~at
         | None ->
           invalid_arg
             (Printf.sprintf
                "Exec.of_log: delivery of unknown message uid %d at pid %d"
                uid pid))
      | Repro_obs.Event.Span_recv _ | Repro_obs.Event.Span_queued _
      | Repro_obs.Event.Span_stable _ | Repro_obs.Event.View_flush_start _
      | Repro_obs.Event.View_flush_end _ | Repro_obs.Event.Retransmit _
      | Repro_obs.Event.Gauge_sample _ | Repro_obs.Event.Hop_send _ -> ());
  Recorder.exec r

(* --- event diagrams ------------------------------------------------------ *)

let min_column_width = 24

let pad width s = s ^ String.make (width - String.length s) ' '

let render_diagram t =
  let labels = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace labels s.uid s.label) t.sends;
  let label uid =
    match Hashtbl.find_opt labels uid with
    | Some l -> l
    | None -> Printf.sprintf "u%d" uid
  in
  (* one row per event, in (time, pid, program order) *)
  let rows =
    List.map (fun s -> (s.sent_at, s.sender, s.send_pseq, "send " ^ s.label))
      t.sends
    @ List.map (fun d -> (d.d_at, d.d_pid, d.d_pseq, "dlvr " ^ label d.d_uid))
        t.deliveries
    @ List.map (fun e -> (e.ext_at, e.ext_pid, e.ext_pseq, e.ext_label))
        t.externals
    |> List.sort (fun (t1, p1, s1, _) (t2, p2, s2, _) ->
           match Sim_time.compare t1 t2 with
           | 0 -> (match Int.compare p1 p2 with 0 -> Int.compare s1 s2 | c -> c)
           | c -> c)
  in
  (* each column as wide as its widest cell, header included *)
  let widths =
    List.map
      (fun (p, name) ->
        List.fold_left
          (fun w (_, pid, _, text) ->
            if pid = p then max w (String.length text) else w)
          (max min_column_width (String.length name))
          rows)
      t.processes
  in
  let buffer = Buffer.create 1024 in
  let add_row time cells =
    Buffer.add_string buffer (pad 10 time);
    List.iter2
      (fun width cell -> Buffer.add_string buffer ("| " ^ pad width cell))
      widths cells;
    Buffer.add_char buffer '\n'
  in
  add_row "time" (List.map snd t.processes);
  Buffer.add_string buffer
    (String.make (List.fold_left (fun n w -> n + w + 2) 10 widths) '-');
  Buffer.add_char buffer '\n';
  List.iter
    (fun (at, pid, _, text) ->
      add_row
        (Format.asprintf "%a" Sim_time.pp at)
        (List.map (fun (p, _) -> if p = pid then text else "") t.processes))
    rows;
  Buffer.contents buffer
