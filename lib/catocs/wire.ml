type msg_id = int

type order_meta =
  | Fifo_meta
  | Causal_meta
  | Seq_meta
  | Lamport_meta of Lamport.stamp
  | Pc_meta of { origin_seq : int }

type 'a data = {
  msg_id : msg_id;
  trace_id : int;
      (* dissemination-trace correlation id, stamped once at the origin and
         preserved across every forward/resend of the copy; LEB128-
         encoded on the Encoded wire, charged inside the fixed 8-byte id
         envelope of the structural byte model *)
  origin : Engine.pid;
  sender_rank : int;
  view_id : int;
  vt : Vector_clock.t;
  meta : order_meta;
  payload : 'a;
  payload_bytes : int;
  sent_at : Sim_time.t;
  piggyback : 'a data list;
}

type 'a proto =
  | Data of 'a data
  | Seq_order of { view_id : int; msg_id : msg_id; global_seq : int }
  | Gossip of { view_id : int; rank : int; vc : Vector_clock.t; lamport : int }
  | Flush of {
      new_view_id : int;
      survivors : Engine.pid list;
      unstable : 'a data list;
      orders : (int * msg_id * int) list;
          (* (view id, message, global seq) sequencer assignments known to
             the sender, so survivors agree on the old view's total order
             even if the sequencer died mid-broadcast *)
    }
  | Flush_done of { new_view_id : int; from : Engine.pid }
  | New_view of { view_id : int; members : Engine.pid list }
  | Join_request of { joiner : Engine.pid }
  | State_transfer of { view_id : int; state : string }
  | Pc_ping of { view_id : int; from_rank : int }
  | Pc_pong of { view_id : int; from_rank : int; delivered : Vector_clock.t }

type 'a t =
  | Proto of int * 'a proto
  | Direct of 'a

let header_bytes data =
  match data.meta with
  | Fifo_meta -> 8
  | Causal_meta | Seq_meta -> 8 + Vector_clock.encoded_size_bytes data.vt
  | Lamport_meta _ -> 16
  (* PC-broadcast carries only (origin, per-origin sequence): constant in
     group size — the in-memory [vt] is an all-zero stamp that only
     carries the group size *)
  | Pc_meta _ -> 16

let seq data =
  match data.meta with
  | Pc_meta { origin_seq } -> origin_seq
  | Fifo_meta | Causal_meta | Seq_meta | Lamport_meta _ ->
    Vector_clock.get data.vt data.sender_rank

let buffered_bytes data = data.payload_bytes + header_bytes data

let rec wire_bytes data =
  buffered_bytes data
  + List.fold_left (fun acc d -> acc + wire_bytes d) 0 data.piggyback

(* Stamping order — the causally consistent total order the recovery paths
   (flush exchange, pong retransmission, skipped-view replay) sort by. With
   the sequential engine's global msg-id counter, [msg_id] alone is monotone
   in stamping time, but the parallel engine's per-sender strided ids are
   not: [sent_at] is what is actually monotone along causal chains (a
   successor is stamped strictly after its predecessor arrived), with
   [msg_id] breaking ties among concurrent same-instant sends. Under the
   sequential engine this comparator orders identically to raw [msg_id]. *)
let compare_stamping (a : 'a data) (b : 'b data) =
  match Sim_time.compare a.sent_at b.sent_at with
  | 0 -> Int.compare a.msg_id b.msg_id
  | c -> c

let pp pp_payload ppf = function
  | Proto (_, Data d) ->
    Format.fprintf ppf "data#%d(from=%d,%a)" d.msg_id d.origin pp_payload d.payload
  | Proto (_, Seq_order { msg_id; global_seq; _ }) ->
    Format.fprintf ppf "order#%d=%d" msg_id global_seq
  | Proto (_, Gossip { rank; _ }) -> Format.fprintf ppf "gossip(r%d)" rank
  | Proto (_, Flush { new_view_id; survivors; unstable; orders }) ->
    Format.fprintf ppf "flush(v%d,|%d|,%d msgs,%d orders)" new_view_id
      (List.length survivors) (List.length unstable) (List.length orders)
  | Proto (_, Flush_done { new_view_id; from }) ->
    Format.fprintf ppf "flush-done(v%d,p%d)" new_view_id from
  | Proto (_, New_view { view_id; members }) ->
    Format.fprintf ppf "new-view(v%d,|%d|)" view_id (List.length members)
  | Proto (_, Join_request { joiner }) -> Format.fprintf ppf "join-req(p%d)" joiner
  | Proto (_, State_transfer { view_id; state }) ->
    Format.fprintf ppf "state(v%d,%dB)" view_id (String.length state)
  | Proto (_, Pc_ping { view_id; from_rank }) ->
    Format.fprintf ppf "pc-ping(v%d,r%d)" view_id from_rank
  | Proto (_, Pc_pong { view_id; from_rank; _ }) ->
    Format.fprintf ppf "pc-pong(v%d,r%d)" view_id from_rank
  | Direct payload -> Format.fprintf ppf "direct(%a)" pp_payload payload
