exception Corrupt of string

(* ------------------------------------------------------------------------- *)
(* Varint primitives: LEB128, little-endian base-128 with a continuation
   bit. Scalars that may be negative (pids can be -1 in replay contexts,
   placeholder views use id -1) go through zigzag; counts, lengths and
   vector-clock components are known non-negative and skip it. *)

(* Loops rather than local recursive helpers: without flambda a local
   [let rec] that captures the buffer allocates a closure per call, and a
   64-component gossip vector is 64 calls. *)
let write_uvarint buf u =
  let u = ref u in
  while !u lsr 7 > 0 do
    Buffer.add_char buf (Char.chr (!u land 0x7f lor 0x80));
    u := !u lsr 7
  done;
  Buffer.add_char buf (Char.chr !u)

(* An int fits in this many 7-bit groups (nine for 63-bit ints). A
   continuation bit on the last of them announces a group that could only
   be shifted past the int width into a mangled value, so it is rejected. *)
let max_varint_bytes = (Sys.int_size + 6) / 7

let read_uvarint b pos =
  let n = Bytes.length b in
  let acc = ref 0 and shift = ref 0 and more = ref true in
  while !more do
    if !pos >= n then raise (Corrupt "truncated varint");
    let byte = Char.code (Bytes.get b !pos) in
    incr pos;
    acc := !acc lor ((byte land 0x7f) lsl !shift);
    if byte land 0x80 = 0 then more := false
    else begin
      shift := !shift + 7;
      if !shift >= 7 * max_varint_bytes then
        raise (Corrupt "varint longer than the int width")
    end
  done;
  !acc

let write_varint buf n = write_uvarint buf ((n lsl 1) lxor (n asr 62))

let read_varint b pos =
  let u = read_uvarint b pos in
  (u lsr 1) lxor (- (u land 1))

(* mirror the writer's logical shift: a zigzagged int with bit 62 set wraps
   negative, and a signed [u < 0x80] test would undercount it as one byte *)
let uvarint_size u =
  let u = ref (u lsr 7) and size = ref 1 in
  while !u > 0 do
    u := !u lsr 7;
    incr size
  done;
  !size

let varint_size n = uvarint_size ((n lsl 1) lxor (n asr 62))

(* ------------------------------------------------------------------------- *)

type 'a payload_codec = {
  encode_payload : Buffer.t -> 'a -> unit;
  decode_payload : bytes -> int ref -> 'a;
}

let int_payload =
  { encode_payload = write_varint; decode_payload = read_varint }

(* One-slot frame memo. A fan-out (a multicast to every member or overlay
   neighbour, a forward to tree children, a gossip round) encodes the same
   value once per link; the memo keeps the last frame keyed on the group id
   and the physical identity of the data record ([Data]) or of the gossip
   proto value (whose clock is a [Vector_clock.copy] snapshot), so every
   copy after the first is the cached string. *)
type 'a memo =
  | Cold
  | Data_frame of { group : int; data : 'a Wire.data; frame : string }
  | Gossip_frame of { group : int; gossip : 'a Wire.proto; frame : string }

type 'a t = {
  payload : 'a payload_codec;
  mutable memo : 'a memo;
  body : Buffer.t;  (* scratch: frame body under construction *)
  frame : Buffer.t;  (* scratch: length-prefixed result *)
  gossip_vcs : (int, Vector_clock.t) Hashtbl.t;
      (* decode targets of gossip vectors, one per vector size; a decoded
         [Gossip] borrows its size's target until the next decode *)
  mutable zero_stamp : Vector_clock.t;
      (* the all-zero [vt] of every [Pc_meta] record this codec decodes:
         one at a time, replaced when a frame of another size parses *)
}

let create payload =
  { payload; memo = Cold; body = Buffer.create 256; frame = Buffer.create 256;
    gossip_vcs = Hashtbl.create 1; zero_stamp = Vector_clock.create 1 }

(* ------------------------------------------------------------------------- *)
(* Vector timestamps: component count, then each component. *)

let write_vt buf vt =
  let n = Vector_clock.size vt in
  write_uvarint buf n;
  for i = 0 to n - 1 do
    write_uvarint buf (Vector_clock.get vt i)
  done

(* A count off the wire sizes an allocation, so a negative one (a
   nine-byte varint can set the sign bit) or an implausible one is
   [Corrupt], never the [Invalid_argument] of the allocation. *)
let read_count b pos ~max what =
  let n = read_uvarint b pos in
  if n < 0 || n > max then raise (Corrupt ("implausible " ^ what));
  n

(* a group has at least one member *)
let read_vt_size b pos =
  let n = read_count b pos ~max:(1 lsl 24) "vector size" in
  if n = 0 then raise (Corrupt "empty vector");
  n

let read_components b pos vt =
  for i = 0 to Vector_clock.size vt - 1 do
    Vector_clock.set vt i (read_uvarint b pos)
  done

let read_vt b pos =
  let vt = Vector_clock.create (read_vt_size b pos) in
  read_components b pos vt;
  vt

(* A gossip vector is read into the codec's reused target of its size: the
   receiver merges it into its stability matrix before the next decode and
   keeps no reference, so no per-gossip vector outlives its frame. Every
   component takes at least one byte, so a size the frame cannot hold is
   rejected before a target of that size is made and kept. *)
let read_gossip_vt t b pos =
  let n = read_vt_size b pos in
  if n > Bytes.length b - !pos then raise (Corrupt "truncated vector");
  let vt =
    match Hashtbl.find t.gossip_vcs n with
    | vt -> vt
    | exception Not_found ->
      let vt = Vector_clock.create n in
      Hashtbl.add t.gossip_vcs n vt;
      vt
  in
  read_components b pos vt;
  vt

(* A [Pc_meta] record's stamp: the codec's one all-zero vector of that
   size, shared by every record it decodes. Nothing writes it, so records
   decoded before a size change keep the old one safely. *)
let zero_stamp t n =
  if Vector_clock.size t.zero_stamp = n then t.zero_stamp
  else begin
    let z = Vector_clock.create n in
    t.zero_stamp <- z;
    z
  end

(* ------------------------------------------------------------------------- *)
(* Data records.

   Field order: msg_id, trace_id (delta), origin, sender_rank, view_id,
   meta, timestamp, payload_bytes, sent_at, payload, piggyback. The PC constant-
   metadata encoding ships only the group size in the timestamp slot: the
   sequence travels as [origin_seq], and a PC record's stamp is all zero
   (see [Wire.Pc_meta]), so the decoder rebuilds it from the size alone.
   This is what makes the encoded wire cost of a PC-broadcast message
   independent of group size (PAPERS: Nédelec 2018). Encoding a nonzero
   stamp under [Pc_meta] would not round-trip. *)

let meta_tag = function
  | Wire.Fifo_meta -> 0
  | Wire.Causal_meta -> 1
  | Wire.Seq_meta -> 2
  | Wire.Lamport_meta _ -> 3
  | Wire.Pc_meta _ -> 4

let rec write_data t buf (d : _ Wire.data) =
  write_varint buf d.Wire.msg_id;
  (* trace id as a zigzag delta off msg_id: the common stamp
     [trace_id = msg_id] costs one byte *)
  write_varint buf (d.Wire.trace_id - d.Wire.msg_id);
  write_varint buf d.Wire.origin;
  write_varint buf d.Wire.sender_rank;
  write_varint buf d.Wire.view_id;
  Buffer.add_char buf (Char.chr (meta_tag d.Wire.meta));
  (match d.Wire.meta with
   | Wire.Fifo_meta | Wire.Causal_meta | Wire.Seq_meta -> ()
   | Wire.Lamport_meta { Lamport.time; node } ->
     write_varint buf time;
     write_varint buf node
   | Wire.Pc_meta { origin_seq } ->
     write_uvarint buf origin_seq);
  (match d.Wire.meta with
   | Wire.Pc_meta _ ->
     write_uvarint buf (Vector_clock.size d.Wire.vt)
   | Wire.Fifo_meta | Wire.Causal_meta | Wire.Seq_meta | Wire.Lamport_meta _
     ->
     write_vt buf d.Wire.vt);
  write_uvarint buf d.Wire.payload_bytes;
  write_varint buf (Sim_time.to_us d.Wire.sent_at);
  t.payload.encode_payload buf d.Wire.payload;
  write_uvarint buf (List.length d.Wire.piggyback);
  write_piggyback t buf d.Wire.piggyback

(* not [List.iter (write_data t buf)]: that partial application allocates a
   closure for every record, and [data_bytes] writes every buffered one *)
and write_piggyback t buf = function
  | [] -> ()
  | d :: rest ->
    write_data t buf d;
    write_piggyback t buf rest

let rec read_data t b pos : _ Wire.data =
  let msg_id = read_varint b pos in
  let trace_id = msg_id + read_varint b pos in
  let origin = read_varint b pos in
  let sender_rank = read_varint b pos in
  let view_id = read_varint b pos in
  if !pos >= Bytes.length b then raise (Corrupt "truncated meta tag");
  let tag = Char.code (Bytes.get b !pos) in
  incr pos;
  let meta =
    match tag with
    | 0 -> Wire.Fifo_meta
    | 1 -> Wire.Causal_meta
    | 2 -> Wire.Seq_meta
    | 3 ->
      let time = read_varint b pos in
      let node = read_varint b pos in
      Wire.Lamport_meta { Lamport.time; node }
    | 4 -> Wire.Pc_meta { origin_seq = read_uvarint b pos }
    | n -> raise (Corrupt (Printf.sprintf "unknown meta tag %d" n))
  in
  (* a PC record ships only its stamp's size (0 for any other meta); the
     stamp is taken once the whole record has parsed *)
  let pc_size =
    match meta with
    | Wire.Pc_meta _ ->
      let n = read_vt_size b pos in
      if sender_rank < 0 || sender_rank >= n then
        raise (Corrupt "sender rank outside the stamp");
      n
    | Wire.Fifo_meta | Wire.Causal_meta | Wire.Seq_meta | Wire.Lamport_meta _
      ->
      0
  in
  let vt = if pc_size = 0 then read_vt b pos else t.zero_stamp in
  let payload_bytes = read_uvarint b pos in
  let sent_at = Sim_time.us (read_varint b pos) in
  let payload = t.payload.decode_payload b pos in
  let npiggy = read_count b pos ~max:(1 lsl 20) "piggyback count" in
  let piggyback =
    (* the common case: no piggyback, so no closure to build *)
    if npiggy = 0 then [] else List.init npiggy (fun _ -> read_data t b pos)
  in
  let vt = if pc_size = 0 then vt else zero_stamp t pc_size in
  { Wire.msg_id; trace_id; origin; sender_rank; view_id; vt; meta; payload;
    payload_bytes; sent_at; piggyback }

(* ------------------------------------------------------------------------- *)
(* Protocol messages and the top-level frame. *)

let write_pid_list buf pids =
  write_uvarint buf (List.length pids);
  List.iter (write_varint buf) pids

let read_pid_list b pos =
  let n = read_count b pos ~max:(1 lsl 24) "member count" in
  List.init n (fun _ -> read_varint b pos)

let write_proto t buf (p : _ Wire.proto) =
  match p with
  | Wire.Data d ->
    Buffer.add_char buf '\000';
    write_data t buf d
  | Wire.Seq_order { view_id; msg_id; global_seq } ->
    Buffer.add_char buf '\001';
    write_varint buf view_id;
    write_varint buf msg_id;
    write_varint buf global_seq
  | Wire.Gossip { view_id; rank; vc; lamport } ->
    Buffer.add_char buf '\002';
    write_varint buf view_id;
    write_varint buf rank;
    write_vt buf vc;
    write_varint buf lamport
  | Wire.Flush { new_view_id; survivors; unstable; orders } ->
    Buffer.add_char buf '\003';
    write_varint buf new_view_id;
    write_pid_list buf survivors;
    write_uvarint buf (List.length unstable);
    List.iter (write_data t buf) unstable;
    write_uvarint buf (List.length orders);
    List.iter
      (fun (view_id, msg_id, global_seq) ->
        write_varint buf view_id;
        write_varint buf msg_id;
        write_varint buf global_seq)
      orders
  | Wire.Flush_done { new_view_id; from } ->
    Buffer.add_char buf '\004';
    write_varint buf new_view_id;
    write_varint buf from
  | Wire.New_view { view_id; members } ->
    Buffer.add_char buf '\005';
    write_varint buf view_id;
    write_pid_list buf members
  | Wire.Join_request { joiner } ->
    Buffer.add_char buf '\006';
    write_varint buf joiner
  | Wire.State_transfer { view_id; state } ->
    Buffer.add_char buf '\007';
    write_varint buf view_id;
    write_uvarint buf (String.length state);
    Buffer.add_string buf state
  | Wire.Pc_ping { view_id; from_rank } ->
    Buffer.add_char buf '\008';
    write_varint buf view_id;
    write_varint buf from_rank
  | Wire.Pc_pong { view_id; from_rank; delivered } ->
    Buffer.add_char buf '\009';
    write_varint buf view_id;
    write_varint buf from_rank;
    write_vt buf delivered

let read_byte b pos =
  if !pos >= Bytes.length b then raise (Corrupt "truncated tag");
  let c = Char.code (Bytes.get b !pos) in
  incr pos;
  c

let read_proto t b pos : _ Wire.proto =
  match read_byte b pos with
  | 0 -> Wire.Data (read_data t b pos)
  | 1 ->
    let view_id = read_varint b pos in
    let msg_id = read_varint b pos in
    let global_seq = read_varint b pos in
    Wire.Seq_order { view_id; msg_id; global_seq }
  | 2 ->
    let view_id = read_varint b pos in
    let rank = read_varint b pos in
    let vc = read_gossip_vt t b pos in
    let lamport = read_varint b pos in
    Wire.Gossip { view_id; rank; vc; lamport }
  | 3 ->
    let new_view_id = read_varint b pos in
    let survivors = read_pid_list b pos in
    let nunstable = read_count b pos ~max:(1 lsl 24) "flush size" in
    let unstable = List.init nunstable (fun _ -> read_data t b pos) in
    let norders = read_count b pos ~max:(1 lsl 24) "order count" in
    let orders =
      List.init norders (fun _ ->
          let view_id = read_varint b pos in
          let msg_id = read_varint b pos in
          let global_seq = read_varint b pos in
          (view_id, msg_id, global_seq))
    in
    Wire.Flush { new_view_id; survivors; unstable; orders }
  | 4 ->
    let new_view_id = read_varint b pos in
    let from = read_varint b pos in
    Wire.Flush_done { new_view_id; from }
  | 5 ->
    let view_id = read_varint b pos in
    let members = read_pid_list b pos in
    Wire.New_view { view_id; members }
  | 6 -> Wire.Join_request { joiner = read_varint b pos }
  | 7 ->
    let view_id = read_varint b pos in
    let len = read_uvarint b pos in
    if len < 0 || !pos + len > Bytes.length b then
      raise (Corrupt "truncated state transfer");
    let state = Bytes.sub_string b !pos len in
    pos := !pos + len;
    Wire.State_transfer { view_id; state }
  | 8 ->
    let view_id = read_varint b pos in
    let from_rank = read_varint b pos in
    Wire.Pc_ping { view_id; from_rank }
  | 9 ->
    let view_id = read_varint b pos in
    let from_rank = read_varint b pos in
    let delivered = read_vt b pos in
    Wire.Pc_pong { view_id; from_rank; delivered }
  | n -> raise (Corrupt (Printf.sprintf "unknown proto tag %d" n))

let write_wire t buf (w : _ Wire.t) =
  match w with
  | Wire.Direct payload ->
    Buffer.add_char buf '\000';
    t.payload.encode_payload buf payload
  | Wire.Proto (group, proto) ->
    Buffer.add_char buf '\001';
    write_varint buf group;
    write_proto t buf proto

let read_wire t b pos : _ Wire.t =
  match read_byte b pos with
  | 0 -> Wire.Direct (t.payload.decode_payload b pos)
  | 1 ->
    let group = read_varint b pos in
    Wire.Proto (group, read_proto t b pos)
  | n -> raise (Corrupt (Printf.sprintf "unknown wire tag %d" n))

let build t w =
  Buffer.clear t.body;
  write_wire t t.body w;
  Buffer.clear t.frame;
  write_uvarint t.frame (Buffer.length t.body);
  Buffer.add_buffer t.frame t.body;
  Buffer.contents t.frame

(* the memoized frame of [Proto (group, p)], or [""] — never a real frame,
   which always carries at least its length prefix *)
let cached t group (p : _ Wire.proto) =
  match (t.memo, p) with
  | Data_frame m, Wire.Data d when m.data == d && Int.equal m.group group ->
    m.frame
  | Gossip_frame m, Wire.Gossip _
    when m.gossip == p && Int.equal m.group group ->
    m.frame
  | (Cold | Data_frame _ | Gossip_frame _), _ -> ""

let encode t w =
  match w with
  | Wire.Direct _ -> build t w
  | Wire.Proto (group, p) ->
    let hit = cached t group p in
    if String.length hit > 0 then hit
    else begin
      let frame = build t w in
      (match p with
       | Wire.Data data -> t.memo <- Data_frame { group; data; frame }
       | Wire.Gossip _ -> t.memo <- Gossip_frame { group; gossip = p; frame }
       | Wire.Seq_order _ | Wire.Flush _ | Wire.Flush_done _ | Wire.New_view _
       | Wire.Join_request _ | Wire.State_transfer _ | Wire.Pc_ping _
       | Wire.Pc_pong _ ->
         (* one-off control frames (a pong goes to one peer) leave the slot
            to the fan-out around them *)
         ());
      frame
    end

let decode t s =
  let b = Bytes.unsafe_of_string s in
  let pos = ref 0 in
  let len = read_uvarint b pos in
  if len < 0 || !pos + len > Bytes.length b then
    raise (Corrupt "truncated frame body");
  let limit = !pos + len in
  (* a frame rejected after its records parsed leaves the stamp it had *)
  let kept = t.zero_stamp in
  try
    let w = read_wire t b pos in
    if not (Int.equal !pos limit) then
      raise (Corrupt "trailing bytes inside frame");
    if limit <> Bytes.length b then
      raise (Corrupt "trailing bytes after frame");
    w
  with Corrupt _ as e ->
    t.zero_stamp <- kept;
    raise e

(* Real encoded footprint of one buffered data record — what the unstable-
   bytes gauges charge under [Config.Encoded] (the per-packet frame and
   group-id envelope are link costs, not buffer contents). *)
let data_bytes t (d : _ Wire.data) =
  Buffer.clear t.body;
  write_data t t.body d;
  Buffer.length t.body
