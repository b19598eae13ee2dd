type 'w packet =
  | Seg of { seq : int; payload : 'w }
  | Raw of 'w
  | Ack of { upto : int }
  | Enc of { seq : int; frame : string }
      (* one encoded frame; [seq] sequences Fifo_order links, -1 on Bare *)

type 'w framing = { frame : 'w -> string; unframe : string -> 'w }

(* Reliable send window, oldest first: each segment's packet, built once,
   and the channel tick it was queued at. Seqs are contiguous, acks cumulative
   and every tick resends every entry, so resend counts never increase front
   to back: acks and give-ups are prefix pops, resends walk in seq order. *)
type 'w queued = { seq : int; packet : 'w packet; queued_at : int }

type 'w send_channel = {
  mutable next_seq : int;
  window : 'w queued Queue.t;
  mutable ticks : int;  (* retransmit ticks fired so far *)
  mutable timer_armed : bool;
}

type 'w recv_channel = {
  mutable next_expected : int;
  out_of_order : (int, 'w packet) Hashtbl.t;
      (* parked [Seg]/[Enc] packets; a frame is decoded only when delivered *)
}

type 'w t = {
  engine : 'w packet Engine.t;
  self : Engine.pid;
  mode : Config.transport_mode;
  obs : Repro_obs.Log.t option;
  on_deliver : src:Engine.pid -> 'w -> unit;
  senders : (Engine.pid, 'w send_channel) Hashtbl.t;
  receivers : (Engine.pid, 'w recv_channel) Hashtbl.t;
  framing : 'w framing option;
  reg : Repro_obs.Registry.t;
      (* a disabled registry when the owner passed none: counter cells are
         then shared scrap and the charges below cost one store *)
  reg_packets : Repro_obs.Registry.counter;
  link_bytes : (Engine.pid, Repro_obs.Registry.counter) Hashtbl.t;
      (* per-destination "wire_bytes" cells, registered lazily per link *)
  mutable packets_sent : int;
  mutable retransmissions : int;
  mutable wire_bytes_sent : int;
}

let create ?obs ?registry ?framing ~engine ~self ~mode ~on_deliver () =
  let reg =
    match registry with
    | Some r -> r
    | None -> Repro_obs.Registry.null ()
  in
  { engine; self; mode; obs; on_deliver; senders = Hashtbl.create 8;
    receivers = Hashtbl.create 8; framing; reg;
    reg_packets =
      Repro_obs.Registry.counter reg ~layer:Repro_obs.Event.Transport
        ~name:"packets" ();
    link_bytes = Hashtbl.create 8;
    packets_sent = 0; retransmissions = 0; wire_bytes_sent = 0 }

let packets_sent t = t.packets_sent
let retransmissions t = t.retransmissions
let wire_bytes_sent t = t.wire_bytes_sent

let link_counter t dst =
  match Hashtbl.find_opt t.link_bytes dst with
  | Some c -> c
  | None ->
    let c =
      Repro_obs.Registry.counter t.reg ~layer:Repro_obs.Event.Transport
        ~name:"wire_bytes"
        ~labels:[ ("dst", string_of_int dst) ]
        ()
    in
    Hashtbl.add t.link_bytes dst c;
    c

let charge_wire t ~dst n =
  t.wire_bytes_sent <- t.wire_bytes_sent + n;
  if Repro_obs.Registry.enabled t.reg then
    Repro_obs.Registry.add (link_counter t dst) n

(* Every transmitted frame is charged, retransmissions included. *)
let emit t ~dst packet =
  t.packets_sent <- t.packets_sent + 1;
  Repro_obs.Registry.incr t.reg_packets;
  (match packet with
   | Enc { frame; _ } -> charge_wire t ~dst (String.length frame)
   | Seg _ | Raw _ | Ack _ -> ());
  Engine.send t.engine ~src:t.self ~dst packet

(* [Hashtbl.find] rather than [find_opt] here, in [handle_ack] and in
   [handle_seg]'s drain: these run once per packet, and the hit path then
   allocates no option box *)
let sender_channel t dst =
  match Hashtbl.find t.senders dst with
  | ch -> ch
  | exception Not_found ->
    let ch = { next_seq = 0; window = Queue.create (); ticks = 0;
               timer_armed = false } in
    Hashtbl.add t.senders dst ch;
    ch

let take_seq ch =
  let seq = ch.next_seq in
  ch.next_seq <- seq + 1;
  seq

let receiver_channel t src =
  match Hashtbl.find t.receivers src with
  | ch -> ch
  | exception Not_found ->
    let ch = { next_expected = 0; out_of_order = Hashtbl.create 8 } in
    Hashtbl.add t.receivers src ch;
    ch

let pop_upto window key (bound : int) =
  while (not (Queue.is_empty window)) && key (Queue.peek window) <= bound do
    ignore (Queue.take window)
  done

let rec arm_retransmit t dst ch ~rto ~max_retries =
  if not ch.timer_armed then begin
    ch.timer_armed <- true;
    Engine.after t.engine ~owner:t.self rto (fun () ->
        ch.timer_armed <- false;
        ch.ticks <- ch.ticks + 1;  (* [ticks - queued_at] = this attempt *)
        pop_upto ch.window (fun q -> q.queued_at) (ch.ticks - max_retries - 1);
        Queue.iter
          (fun q ->
            t.retransmissions <- t.retransmissions + 1;
            (match t.obs with
             | Some log ->
               Repro_obs.Log.retransmit log ~at:(Engine.now t.engine)
                 ~pid:t.self ~dst ~seq:q.seq ~attempt:(ch.ticks - q.queued_at)
             | None -> ());
            emit t ~dst q.packet)
          ch.window;
        if not (Queue.is_empty ch.window) then
          arm_retransmit t dst ch ~rto ~max_retries)
  end

(* The one framing rule: a transport with a codec ships every payload as
   an encoded frame, built once (a [Reliable] window keeps the frame, not
   the value); [seq] is -1 on a Bare link. *)
let packet t ~seq payload =
  match t.framing with
  | Some f -> Enc { seq; frame = f.frame payload }
  | None -> if seq < 0 then Raw payload else Seg { seq; payload }

let send t ~dst payload =
  match t.mode with
  | Config.Bare -> emit t ~dst (packet t ~seq:(-1) payload)
  | Config.Fifo_order ->
    (* sequence-and-reorder only: the receiver reassembles each (src, dst)
       stream in send order, turning a reordering network into FIFO links —
       the substrate PC-broadcast assumes. No acks, so a dropped segment
       stalls the link; use [Reliable] under loss. *)
    emit t ~dst (packet t ~seq:(take_seq (sender_channel t dst)) payload)
  | Config.Reliable { rto; max_retries } ->
    let ch = sender_channel t dst in
    let seq = take_seq ch in
    let packet = packet t ~seq payload in
    Queue.add { seq; packet; queued_at = ch.ticks } ch.window;
    emit t ~dst packet;
    arm_retransmit t dst ch ~rto ~max_retries

(* Empty the window only: [next_seq] stays, so a later send to [dst] is
   still numbered after the given-up segments (see the interface). The
   armed timer fires once more on the empty window and does not re-arm.
   Only a [Reliable] link queues anything. *)
let give_up t ~dst =
  match Hashtbl.find t.senders dst with
  | ch -> Queue.clear ch.window
  | exception Not_found -> ()

let handle_ack t src upto =
  match Hashtbl.find t.senders src with
  | ch -> pop_upto ch.window (fun q -> q.seq) upto
  | exception Not_found -> ()

let require_framing t =
  match t.framing with
  | Some f -> f
  | None ->
    (* both link ends are built from the same Config, so an encoded packet
       can only reach a framed transport *)
    invalid_arg "Transport: encoded packet on a transport without framing"

(* Hand a packet's payload up. An encoded frame is decoded here, at its
   in-order delivery and never earlier: a codec may decode into storage it
   reuses on the next decode, so a decoded value must not wait in the
   reassembly buffer. *)
let deliver t ~src = function
  | Seg { payload; _ } | Raw payload -> t.on_deliver ~src payload
  | Enc { frame; _ } -> t.on_deliver ~src ((require_framing t).unframe frame)
  | Ack _ -> ()

let handle_seg t src seq packet =
  let ch = receiver_channel t src in
  if Int.equal seq ch.next_expected && Hashtbl.length ch.out_of_order = 0
  then begin
    (* in-order arrival on an empty reassembly buffer — the common case on
       a mildly-reordering network: deliver without touching the table *)
    ch.next_expected <- seq + 1;
    deliver t ~src packet
  end
  else begin
    if seq >= ch.next_expected && not (Hashtbl.mem ch.out_of_order seq) then
      Hashtbl.add ch.out_of_order seq packet;
    (* drain the contiguous prefix *)
    let rec drain () =
      match Hashtbl.find ch.out_of_order ch.next_expected with
      | p ->
        Hashtbl.remove ch.out_of_order ch.next_expected;
        ch.next_expected <- ch.next_expected + 1;
        deliver t ~src p;
        drain ()
      | exception Not_found -> ()
    in
    drain ()
  end;
  (* acks exist only for the retransmission mode; a Fifo_order receiver
     stays silent *)
  match t.mode with
  | Config.Reliable _ -> emit t ~dst:src (Ack { upto = ch.next_expected - 1 })
  | Config.Bare | Config.Fifo_order -> ()

let handle t (env : 'w packet Engine.envelope) =
  match env.payload with
  | Raw payload -> t.on_deliver ~src:env.src payload
  | Seg { seq; _ } -> handle_seg t env.src seq env.payload
  | Ack { upto } -> handle_ack t env.src upto
  | Enc { seq; _ } ->
    (* [-1]: a Bare link, nothing to reassemble *)
    if seq < 0 then deliver t ~src:env.src env.payload
    else handle_seg t env.src seq env.payload
