(* Wire-codec correctness battery: qcheck encode/decode round-trip identity
   for every [Wire] variant (all six meta kinds, piggybacked history, every
   proto constructor, the Direct envelope), plus strict-decoder rejection —
   every truncation of a valid frame, trailing garbage, unknown tags, and
   arbitrary byte soup must raise [Wire_codec.Corrupt], never return a
   mangled value or escape with another exception. The frame memo must be
   invisible in the bytes, [data_bytes] must equal the serialized record
   length, and a fan-out must still frame and charge every copy. *)

module Config = Repro_catocs.Config
module Endpoint = Repro_catocs.Endpoint
module Group = Repro_catocs.Group
module Registry = Repro_obs.Registry
module Stack = Repro_catocs.Stack
module Transport = Repro_catocs.Transport
module Wire = Repro_catocs.Wire
module Wire_codec = Repro_catocs.Wire_codec

let codec () = Wire_codec.create Wire_codec.int_payload

(* --- generators ---------------------------------------------------------- *)

open QCheck

let gen_vt =
  Gen.(
    int_range 1 8 >>= fun n ->
    list_size (return n) (int_range 0 1000) >|= Vector_clock.of_list)

(* A PC record's stamp is all zero: only its size travels, and the
   sequence is the meta's [origin_seq] (see [Wire.seq]). *)
let gen_pc_stamp =
  Gen.(
    int_range 1 8 >>= fun n ->
    int_range 0 (n - 1) >>= fun rank ->
    int_range 0 1000 >|= fun seq -> (Vector_clock.create n, rank, seq))

let gen_meta_and_vt =
  Gen.(
    int_range 0 4 >>= function
    | 0 -> gen_vt >|= fun vt -> (Wire.Fifo_meta, vt, None)
    | 1 -> gen_vt >|= fun vt -> (Wire.Causal_meta, vt, None)
    | 2 -> gen_vt >|= fun vt -> (Wire.Seq_meta, vt, None)
    | 3 ->
      pair gen_vt (pair (int_range 0 10_000) (int_range 0 64))
      >|= fun (vt, (time, node)) ->
      (Wire.Lamport_meta { Lamport.time; node }, vt, None)
    | _ ->
      gen_pc_stamp >|= fun (vt, rank, seq) ->
      (Wire.Pc_meta { origin_seq = seq }, vt, Some rank))

let rec gen_data depth =
  Gen.(
    gen_meta_and_vt >>= fun (meta, vt, forced_rank) ->
    int_range 0 (1 lsl 30) >>= fun msg_id ->
    (* trace_id ships as a zigzag delta off msg_id; weight the common
       equal case but exercise both signs of the delta *)
    oneof [ return 0; int_range (-64) 64; int_range (-4096) 4096 ]
    >>= fun trace_delta ->
    int_range (-1) 4095 >>= fun origin ->
    (match forced_rank with
     | Some r -> return r
     | None -> int_range (-1) 63)
    >>= fun sender_rank ->
    int_range (-1) 100 >>= fun view_id ->
    small_signed_int >>= fun payload ->
    int_range 0 4096 >>= fun payload_bytes ->
    int_range 0 1_000_000 >>= fun sent_us ->
    (if depth = 0 then return []
     else list_size (int_range 0 2) (gen_data (depth - 1)))
    >|= fun piggyback ->
    { Wire.msg_id; trace_id = msg_id + trace_delta; origin; sender_rank;
      view_id; vt; meta; payload; payload_bytes;
      sent_at = Sim_time.us sent_us; piggyback })

let gen_pid_list = Gen.(list_size (int_range 0 6) (int_range (-1) 4095))

let gen_proto =
  Gen.(
    int_range 0 9 >>= function
    | 0 -> gen_data 1 >|= fun d -> Wire.Data d
    | 1 ->
      triple (int_range (-1) 100) (int_range 0 (1 lsl 30)) small_signed_int
      >|= fun (view_id, msg_id, global_seq) ->
      Wire.Seq_order { view_id; msg_id; global_seq }
    | 2 ->
      pair (pair (int_range (-1) 100) (int_range 0 63))
        (pair gen_vt (int_range 0 100_000))
      >|= fun ((view_id, rank), (vc, lamport)) ->
      Wire.Gossip { view_id; rank; vc; lamport }
    | 3 ->
      pair (pair (int_range 0 100) gen_pid_list)
        (pair
           (list_size (int_range 0 3) (gen_data 1))
           (list_size (int_range 0 3)
              (triple (int_range (-1) 100) (int_range 0 (1 lsl 30))
                 small_signed_int)))
      >|= fun ((new_view_id, survivors), (unstable, orders)) ->
      Wire.Flush { new_view_id; survivors; unstable; orders }
    | 4 ->
      pair (int_range 0 100) (int_range (-1) 4095)
      >|= fun (new_view_id, from) -> Wire.Flush_done { new_view_id; from }
    | 5 ->
      pair (int_range 0 100) gen_pid_list >|= fun (view_id, members) ->
      Wire.New_view { view_id; members }
    | 6 -> int_range (-1) 4095 >|= fun joiner -> Wire.Join_request { joiner }
    | 7 ->
      pair (int_range 0 100) (string_size (int_range 0 64))
      >|= fun (view_id, state) -> Wire.State_transfer { view_id; state }
    | 8 ->
      pair (int_range 0 100) (int_range 0 63) >|= fun (view_id, from_rank) ->
      Wire.Pc_ping { view_id; from_rank }
    | _ ->
      triple (int_range 0 100) (int_range 0 63) gen_vt
      >|= fun (view_id, from_rank, delivered) ->
      Wire.Pc_pong { view_id; from_rank; delivered })

let gen_wire =
  Gen.(
    frequency
      [ (1, small_signed_int >|= fun p -> Wire.Direct p);
        (9, pair (int_range 0 64) gen_proto >|= fun (g, p) -> Wire.Proto (g, p)) ])

(* --- structural equality (Vector_clock is abstract) ----------------------- *)

let meta_equal (a : Wire.order_meta) (b : Wire.order_meta) =
  match (a, b) with
  | Wire.Fifo_meta, Wire.Fifo_meta
  | Wire.Causal_meta, Wire.Causal_meta
  | Wire.Seq_meta, Wire.Seq_meta -> true
  | Wire.Lamport_meta x, Wire.Lamport_meta y -> x = y
  | Wire.Pc_meta x, Wire.Pc_meta y -> x.origin_seq = y.origin_seq
  | _ -> false

let rec data_equal (a : int Wire.data) (b : int Wire.data) =
  a.Wire.msg_id = b.Wire.msg_id
  && a.Wire.trace_id = b.Wire.trace_id
  && a.Wire.origin = b.Wire.origin
  && a.Wire.sender_rank = b.Wire.sender_rank
  && a.Wire.view_id = b.Wire.view_id
  && Vector_clock.equal a.Wire.vt b.Wire.vt
  && meta_equal a.Wire.meta b.Wire.meta
  && a.Wire.payload = b.Wire.payload
  && a.Wire.payload_bytes = b.Wire.payload_bytes
  && Sim_time.compare a.Wire.sent_at b.Wire.sent_at = 0
  && List.length a.Wire.piggyback = List.length b.Wire.piggyback
  && List.for_all2 data_equal a.Wire.piggyback b.Wire.piggyback

let proto_equal (a : int Wire.proto) (b : int Wire.proto) =
  match (a, b) with
  | Wire.Data x, Wire.Data y -> data_equal x y
  | Wire.Gossip x, Wire.Gossip y ->
    x.view_id = y.view_id && x.rank = y.rank && x.lamport = y.lamport
    && Vector_clock.equal x.vc y.vc
  | Wire.Flush x, Wire.Flush y ->
    x.new_view_id = y.new_view_id && x.survivors = y.survivors
    && x.orders = y.orders
    && List.length x.unstable = List.length y.unstable
    && List.for_all2 data_equal x.unstable y.unstable
  | Wire.Pc_pong x, Wire.Pc_pong y ->
    x.view_id = y.view_id && x.from_rank = y.from_rank
    && Vector_clock.equal x.delivered y.delivered
  | (Wire.Seq_order _ | Wire.Flush_done _ | Wire.New_view _
    | Wire.Join_request _ | Wire.State_transfer _ | Wire.Pc_ping _), _ ->
    a = b
  | _ -> false

let wire_equal (a : int Wire.t) (b : int Wire.t) =
  match (a, b) with
  | Wire.Direct x, Wire.Direct y -> x = y
  | Wire.Proto (g, x), Wire.Proto (h, y) -> g = h && proto_equal x y
  | _ -> false

let pp_wire ppf w = Wire.pp Format.pp_print_int ppf w

let show_wire w = Format.asprintf "%a" pp_wire w

(* --- properties ----------------------------------------------------------- *)

let arb_wire = QCheck.make ~print:show_wire gen_wire

let test_roundtrip =
  QCheck.Test.make ~name:"encode |> decode is the identity" ~count:2000
    arb_wire (fun w ->
      let t = codec () in
      let decoded = Wire_codec.decode t (Wire_codec.encode t w) in
      if not (wire_equal w decoded) then
        QCheck.Test.fail_reportf "round-trip mismatch:@.%a@.vs@.%a" pp_wire w
          pp_wire decoded;
      true)

let test_roundtrip_shared_codec =
  (* One codec instance across many frames: the timestamp memo and scratch
     buffers must not leak state between messages. *)
  QCheck.Test.make ~name:"shared codec instance round-trips" ~count:200
    (QCheck.make Gen.(list_size (int_range 2 10) gen_wire))
    (fun ws ->
      let t = codec () in
      List.for_all
        (fun w -> wire_equal w (Wire_codec.decode t (Wire_codec.encode t w)))
        ws)

let is_corrupt f =
  match f () with
  | exception Wire_codec.Corrupt _ -> true
  | _ -> false

let test_truncation_rejected =
  (* Strictness: every strict prefix of a valid frame must raise Corrupt —
     the decoder never fabricates a value from a short buffer. *)
  QCheck.Test.make ~name:"every truncation raises Corrupt" ~count:300
    arb_wire (fun w ->
      let t = codec () in
      let frame = Wire_codec.encode t w in
      let ok = ref true in
      for len = 0 to String.length frame - 1 do
        if not (is_corrupt (fun () -> Wire_codec.decode t (String.sub frame 0 len)))
        then begin
          ok := false;
          QCheck.Test.fail_reportf "prefix of length %d of %s decoded" len
            (show_wire w)
        end
      done;
      !ok)

let test_trailing_garbage_rejected =
  QCheck.Test.make ~name:"trailing bytes raise Corrupt" ~count:300
    (QCheck.pair arb_wire (QCheck.make Gen.(string_size (int_range 1 8))))
    (fun (w, junk) ->
      let t = codec () in
      is_corrupt (fun () -> Wire_codec.decode t (Wire_codec.encode t w ^ junk)))

let test_garbage_never_escapes =
  (* Arbitrary byte soup: the decoder either raises Corrupt or happens to
     parse a frame — it must never escape with any other exception. *)
  QCheck.Test.make ~name:"garbage bytes: Corrupt or a value, nothing else"
    ~count:2000
    (QCheck.make ~print:String.escaped Gen.(string_size (int_range 0 64)))
    (fun s ->
      let t = codec () in
      match Wire_codec.decode t s with
      | _ -> true
      | exception Wire_codec.Corrupt _ -> true)

let test_unknown_tags_rejected () =
  (* Surgical corruption: an unknown envelope, proto, or meta tag must be
     rejected by name, not skipped. The envelope tag sits right after the
     frame length prefix; a Data proto's meta tag follows five one-byte
     varints when every leading field is small. *)
  let t = codec () in
  let w = Wire.Proto (3, Wire.Join_request { joiner = 7 }) in
  let frame = Bytes.of_string (Wire_codec.encode t w) in
  (* byte 0 is the length prefix (short frame), byte 1 the envelope tag *)
  Bytes.set frame 1 '\255';
  Alcotest.(check bool)
    "unknown envelope tag rejected" true
    (is_corrupt (fun () -> Wire_codec.decode t (Bytes.to_string frame)));
  let frame = Bytes.of_string (Wire_codec.encode t w) in
  (* byte 2 is the group id varint (3 < 128: one byte), byte 3 the proto tag *)
  Bytes.set frame 3 '\254';
  Alcotest.(check bool)
    "unknown proto tag rejected" true
    (is_corrupt (fun () -> Wire_codec.decode t (Bytes.to_string frame)));
  let data =
    { Wire.msg_id = 1; trace_id = 1; origin = 0; sender_rank = 0;
      view_id = 0; vt = Vector_clock.create 3;
      meta = Wire.Pc_meta { origin_seq = 1 }; payload = 7;
      payload_bytes = 8; sent_at = Sim_time.us 1_000; piggyback = [] }
  in
  let frame =
    Bytes.of_string (Wire_codec.encode t (Wire.Proto (3, Wire.Data data)))
  in
  (* bytes 0-3: length, envelope, group id, proto tag; 4-8: msg_id, trace
     delta, origin, sender_rank, view_id; byte 9: the meta tag *)
  Alcotest.(check char) "Pc_meta tag located" '\004' (Bytes.get frame 9);
  (* tag 5 belonged to a retired causal layer and is unassigned *)
  Bytes.set frame 9 '\005';
  Alcotest.(check string)
    "retired meta tag 5 rejected" "unknown meta tag 5"
    (match Wire_codec.decode t (Bytes.to_string frame) with
     | exception Wire_codec.Corrupt msg -> msg
     | _ -> "decoded")

let test_overlong_varint_rejected () =
  let t = codec () in
  (* eleven continuation bytes: a varint that never terminates within the
     nine-byte bound must be rejected before it wraps *)
  let s = String.make 11 '\x80' in
  Alcotest.(check bool)
    "over-long varint rejected" true
    (is_corrupt (fun () -> Wire_codec.decode t s));
  (* A 63-bit int fits in nine 7-bit groups; a tenth group would be shifted
     by 63 and mangle the value. Both strings once decoded: to -1 and 0. *)
  let read s = Wire_codec.read_uvarint (Bytes.of_string s) (ref 0) in
  List.iter
    (fun (name, s) ->
      Alcotest.(check bool) name true (is_corrupt (fun () -> read s)))
    [ ("2^64 - 1 in ten bytes rejected", String.make 9 '\xff' ^ "\x7f");
      ("2^64 in ten bytes rejected", String.make 9 '\x80' ^ "\x02") ];
  Alcotest.(check int) "nine bytes carry all 63 bits" (-1)
    (read (String.make 8 '\xff' ^ "\x7f"))

(* Hand-built frames: [body] writes the envelope onwards, this adds the
   length prefix. *)
let frame_of_body body =
  let b = Buffer.create 32 in
  body b;
  let frame = Buffer.create 40 in
  Wire_codec.write_uvarint frame (Buffer.length b);
  Buffer.add_buffer frame b;
  Buffer.contents frame

let rejection f =
  match f () with
  | _ -> "decoded"
  | exception Wire_codec.Corrupt _ -> "Corrupt"
  | exception e -> Printexc.to_string e

let check_corrupt cases =
  let t = codec () in
  List.iter
    (fun (name, body) ->
      Alcotest.(check string) name "Corrupt"
        (rejection (fun () -> Wire_codec.decode t (frame_of_body body))))
    cases

(* [Proto (0, Data _)] up to its meta tag, with the given sender rank *)
let data_head b ~sender_rank ~meta_tag =
  Buffer.add_string b "\001\000\000";
  List.iter (Wire_codec.write_varint b) [ 1; 0; 0; sender_rank; 0 ];
  Buffer.add_char b (Char.chr meta_tag)

(* payload_bytes, sent_at, payload and an empty piggyback *)
let data_tail b = List.iter (Wire_codec.write_uvarint b) [ 8; 0; 0; 0 ]

let test_empty_vector_rejected () =
  (* a group has at least one member: a zero-length vector in any slot is
     corrupt, never an [Invalid_argument] from the vector it would size *)
  check_corrupt
    [ ( "gossip with an empty vector",
        fun b ->
          Buffer.add_string b "\001\000\002\000\000";
          Wire_codec.write_uvarint b 0;
          Wire_codec.write_varint b 0 );
      ( "causal data with an empty vector",
        fun b ->
          data_head b ~sender_rank:0 ~meta_tag:1;
          Wire_codec.write_uvarint b 0;
          data_tail b );
      ( "pc data with an empty vector",
        fun b ->
          data_head b ~sender_rank:0 ~meta_tag:4;
          Wire_codec.write_uvarint b 1;
          Wire_codec.write_uvarint b 0;
          data_tail b );
      ( "pong with an empty vector",
        fun b ->
          Buffer.add_string b "\001\000\009\000\000";
          Wire_codec.write_uvarint b 0 ) ]

let test_negative_count_rejected () =
  (* nine varint bytes can set the sign bit of a 63-bit int; as a count it
     would reach [List.init] or [Vector_clock.create] *)
  let negative head b =
    Buffer.add_string b head;
    Buffer.add_string b (String.make 8 '\x80' ^ "\x40")
  in
  Alcotest.(check bool) "the count reads negative" true
    (Wire_codec.read_uvarint
       (Bytes.of_string (frame_of_body (negative ""))) (ref 1)
     < 0);
  check_corrupt
    [ ("new-view member count", negative "\001\000\005\000");
      ("flush size", negative "\001\000\003\000\000");
      ("gossip vector size", negative "\001\000\002\000\000") ]

let pc_frame ~n ~sender_rank =
  frame_of_body (fun b ->
      data_head b ~sender_rank ~meta_tag:4;
      Wire_codec.write_uvarint b 3;
      Wire_codec.write_uvarint b n;
      data_tail b)

let pc_stamp_of t frame =
  match Wire_codec.decode t frame with
  | Wire.Proto (_, Wire.Data d) ->
    Alcotest.(check int) "sequence read from the record" 3 (Wire.seq d);
    d.Wire.vt
  | Wire.Proto _ | Wire.Direct _ -> Alcotest.fail "expected a data frame"

let test_pc_zero_stamp_shared () =
  (* every PC record a codec decodes shares its one zero stamp of that
     size; a new size replaces it, and no rejected frame does *)
  let t = codec () in
  let first = pc_stamp_of t (pc_frame ~n:5 ~sender_rank:1) in
  Alcotest.(check (list int)) "all zero" [ 0; 0; 0; 0; 0 ]
    (Vector_clock.to_list first);
  Alcotest.(check bool) "shared by the next record" true
    (first == pc_stamp_of t (pc_frame ~n:5 ~sender_rank:4));
  (* size-7 PC frames that fail at the rank, after the size, at the
     piggyback count and after the record *)
  let pc_head b ~sender_rank =
    data_head b ~sender_rank ~meta_tag:4;
    Wire_codec.write_uvarint b 3;
    Wire_codec.write_uvarint b 7
  in
  List.iter
    (fun (name, frame) ->
      Alcotest.(check string) name "Corrupt"
        (rejection (fun () -> Wire_codec.decode t frame));
      Alcotest.(check bool) (name ^ " keeps the stamp") true
        (first == pc_stamp_of t (pc_frame ~n:5 ~sender_rank:0)))
    [ ("rank outside the stamp", pc_frame ~n:7 ~sender_rank:7);
      ("truncated after the size", frame_of_body (pc_head ~sender_rank:2));
      ( "implausible piggyback count",
        frame_of_body (fun b ->
            pc_head b ~sender_rank:2;
            List.iter (Wire_codec.write_uvarint b) [ 8; 0; 0; 1 lsl 21 ]) );
      ( "trailing bytes inside the frame",
        frame_of_body (fun b ->
            pc_head b ~sender_rank:2;
            data_tail b;
            Buffer.add_char b '\000') );
      ("trailing bytes after the frame", pc_frame ~n:7 ~sender_rank:2 ^ "\000")
    ];
  let other = pc_stamp_of t (pc_frame ~n:3 ~sender_rank:2) in
  Alcotest.(check int) "a new size" 3 (Vector_clock.size other);
  Alcotest.(check bool) "only one stamp is kept" false
    (first == pc_stamp_of t (pc_frame ~n:5 ~sender_rank:0))

let test_varint_primitives =
  QCheck.Test.make ~name:"varint round-trip (any int)" ~count:2000
    QCheck.(
      make
        Gen.(
          oneof
            [ small_signed_int; int;
              int_range min_int max_int;
              map (fun n -> 1 lsl n) (int_range 0 61) ]))
    (fun n ->
      let buf = Buffer.create 16 in
      Wire_codec.write_varint buf n;
      let s = Buffer.contents buf in
      String.length s = Wire_codec.varint_size n
      && Wire_codec.read_varint (Bytes.of_string s) (ref 0) = n)

let test_uvarint_primitives =
  QCheck.Test.make ~name:"uvarint round-trip (non-negative)" ~count:2000
    QCheck.(make Gen.(oneof [ small_nat; int_range 0 max_int ]))
    (fun n ->
      let buf = Buffer.create 16 in
      Wire_codec.write_uvarint buf n;
      let s = Buffer.contents buf in
      String.length s = Wire_codec.uvarint_size n
      && Wire_codec.read_uvarint (Bytes.of_string s) (ref 0) = n)

let test_pc_constant_metadata () =
  (* The property the codec exists for: an encoded PC data record's size is
     independent of group size (the timestamp ships as a bare count), while
     a BSS causal record grows linearly. *)
  let t = codec () in
  let mk n meta vt =
    { Wire.msg_id = 1; trace_id = 1; origin = 0; sender_rank = 0;
      view_id = 0; vt; meta; payload = 42; payload_bytes = 8;
      sent_at = Sim_time.us 1_000; piggyback = [] }
    |> fun d -> ignore n; Wire_codec.data_bytes t d
  in
  let pc n = mk n (Wire.Pc_meta { origin_seq = 5 }) (Vector_clock.create n) in
  let bss n =
    let vt = Vector_clock.create n in
    Vector_clock.set vt 0 5;
    mk n Wire.Causal_meta vt
  in
  Alcotest.(check int) "pc cost flat 4 -> 64" (pc 4) (pc 64);
  Alcotest.(check bool) "bss cost grows 4 -> 64" true (bss 64 > bss 4)

(* --- frame memo and write-free sizing ---------------------------------------- *)

(* ints over the whole range, weighted toward the zigzag corner: a magnitude
   of at least 2^61 zigzags to a uvarint with bit 62 set *)
let gen_wide_int =
  Gen.(
    frequency
      [ (3, small_signed_int); (2, int);
        (1, int_range (1 lsl 61) max_int);
        (1, int_range min_int (-(1 lsl 61))) ])

let gen_wide_vt =
  Gen.(
    int_range 1 8 >>= fun n ->
    list_size (return n) gen_wide_int >|= Vector_clock.of_list)

(* every meta kind; non-PC records get arbitrary (negative too) ranks and
   stamps, PC ones an all-zero stamp and an in-range rank *)
let rec gen_wide_data depth =
  Gen.(
    int_range 0 4 >>= fun kind ->
    gen_wide_vt >>= fun vt ->
    pair gen_wide_int gen_wide_int >>= fun (a, b) ->
    int_range 0 (Vector_clock.size vt - 1) >>= fun own_rank ->
    let pc_stamp () = Vector_clock.create (Vector_clock.size vt) in
    let meta, vt, forced_rank =
      match kind with
      | 0 -> (Wire.Fifo_meta, vt, None)
      | 1 -> (Wire.Causal_meta, vt, None)
      | 2 -> (Wire.Seq_meta, vt, None)
      | 3 -> (Wire.Lamport_meta { Lamport.time = a; node = b }, vt, None)
      | _ -> (Wire.Pc_meta { origin_seq = a }, pc_stamp (), Some own_rank)
    in
    quad gen_wide_int gen_wide_int gen_wide_int gen_wide_int
    >>= fun (msg_id, trace_id, origin, rank) ->
    quad gen_wide_int gen_wide_int gen_wide_int gen_wide_int
    >>= fun (view_id, payload, payload_bytes, sent_us) ->
    (if depth = 0 then return []
     else list_size (int_range 0 2) (gen_wide_data (depth - 1)))
    >|= fun piggyback ->
    { Wire.msg_id; trace_id; origin;
      sender_rank = Option.value forced_rank ~default:rank; view_id; vt;
      meta; payload; payload_bytes; sent_at = Sim_time.us sent_us;
      piggyback })

type memo_step =
  | Copy of int * int  (* group id, index into the shared pool *)
  | Other of int Wire.t
  | Size of int Wire.data

(* A shared pool of physical values (two data records, a gossip and a pong)
   sent in runs under varying group ids, so the memo sees hits, group
   changes, evictions and returns, and a repeated pong that must never hit
   or evict; interleaved with unrelated frames and [data_bytes] calls on
   pooled and fresh records. *)
let gen_memo_case =
  Gen.(
    pair (gen_wide_data 1) (gen_wide_data 0) >>= fun (d1, d2) ->
    pair gen_wide_vt gen_wide_vt >>= fun (vc, delivered) ->
    let pool =
      [| Wire.Data d1; Wire.Data d2;
         Wire.Gossip { view_id = -1; rank = 3; vc; lamport = min_int };
         Wire.Pc_pong { view_id = 7; from_rank = 0; delivered } |]
    in
    let step =
      frequency
        [ (6,
           triple (int_range 0 2) (int_range 0 3) (int_range 1 4)
           >|= fun (g, i, k) -> List.init k (fun _ -> Copy (g, i)));
          (2, gen_wire >|= fun w -> [ Other w ]);
          (1, oneofl [ d1; d2 ] >|= fun d -> [ Size d ]);
          (1, gen_wide_data 1 >|= fun d -> [ Size d ]) ]
    in
    list_size (int_range 1 30) step >|= fun steps -> (pool, List.concat steps))

let wire_of_step pool = function
  | Copy (g, i) -> Some (Wire.Proto (g, pool.(i)))
  | Other w -> Some w
  | Size _ -> None

(* the record's share of a [Proto (0, Data d)] frame: the body less its
   envelope tag, one-byte group id and proto tag *)
let serialized_data_length d =
  let frame = Wire_codec.encode (codec ()) (Wire.Proto (0, Wire.Data d)) in
  let pos = ref 0 in
  let body = Wire_codec.read_uvarint (Bytes.of_string frame) pos in
  assert (!pos + body = String.length frame);
  body - 3

let test_memo_transparent =
  QCheck.Test.make ~name:"frame memo is invisible in the bytes" ~count:500
    (QCheck.make
       ~print:(fun (pool, steps) ->
         String.concat "\n"
           (List.filter_map
              (fun s -> Option.map show_wire (wire_of_step pool s))
              steps))
       gen_memo_case)
    (fun (pool, steps) ->
      let long_lived = codec () in
      List.for_all
        (fun step ->
          match (step, wire_of_step pool step) with
          | Size d, _ ->
            Wire_codec.data_bytes long_lived d = serialized_data_length d
          | (Copy _ | Other _), Some w ->
            String.equal (Wire_codec.encode long_lived w)
              (Wire_codec.encode (codec ()) w)
          | (Copy _ | Other _), None -> false)
        steps)

let test_data_bytes_is_serialized_length =
  QCheck.Test.make ~name:"data_bytes = serialized record length" ~count:2000
    (QCheck.make
       ~print:(fun d -> show_wire (Wire.Proto (0, Wire.Data d)))
       (gen_wide_data 2))
    (fun d -> Wire_codec.data_bytes (codec ()) d = serialized_data_length d)

(* --- per-copy framing contract --------------------------------------------- *)

let test_transport_frames_every_copy () =
  (* the memo saves the serialization, not the frame call: each send of
     one value still calls [frame] and charges the frame's bytes *)
  let engine = Engine.create ~net:(Net.create ()) () in
  let spawn name = Engine.spawn engine ~name (fun _ _ -> ()) in
  let self = spawn "sender" in
  let dsts = List.init 5 (fun i -> spawn (Printf.sprintf "r%d" i)) in
  let c = codec () and calls = ref 0 in
  let framing =
    { Transport.frame =
        (fun w ->
          incr calls;
          Wire_codec.encode c w);
      unframe = Wire_codec.decode c }
  in
  let tr =
    Transport.create ~framing ~engine ~self ~mode:Config.Bare
      ~on_deliver:(fun ~src:_ _ -> ())
      ()
  in
  let gossip =
    Wire.Gossip
      { view_id = 2; rank = 0; vc = Vector_clock.of_list [ 3; 1; 4; 1; 5 ];
        lamport = 9 }
  in
  List.iter (fun dst -> Transport.send tr ~dst (Wire.Proto (1, gossip))) dsts;
  let len = String.length (Wire_codec.encode (codec ()) (Wire.Proto (1, gossip))) in
  Alcotest.(check int) "one frame call per copy" 5 !calls;
  Alcotest.(check int) "every copy charged" (5 * len)
    (Transport.wire_bytes_sent tr)

let test_multicast_frames_every_copy causal_impl () =
  let n = 6 in
  let config =
    { Config.default with
      Config.wire_format = Config.Encoded; causal_impl;
      pc_overlay = Config.Pc_tree { fanout = 2 };
      transport = Config.Fifo_order; track_graph = false }
  in
  let engine = Engine.create ~net:(Net.create ()) () in
  let pids =
    List.init n (fun i ->
        Engine.spawn engine ~name:(Printf.sprintf "p%d" i) (fun _ _ -> ()))
  in
  let view = Group.make_view ~view_id:0 pids in
  let shared = Stack.make_shared config in
  let sender = List.hd pids in
  let c = codec () and data_frames = ref [] in
  let framing =
    { Transport.frame =
        (fun w ->
          let f = Wire_codec.encode c w in
          (match w with
           | Wire.Proto (_, Wire.Data _) -> data_frames := f :: !data_frames
           | Wire.Proto _ | Wire.Direct _ -> ());
          f);
      unframe = Wire_codec.decode c }
  in
  let registry = Registry.create ~enabled:true () in
  let endpoint =
    Endpoint.create ~registry ~framing ~engine ~self:sender
      ~mode:config.Config.transport ()
  in
  let stacks =
    List.map
      (fun self ->
        Stack.create
          ?endpoint:(if self = sender then Some endpoint else None)
          ~payload_codec:Wire_codec.int_payload ~engine ~shared ~config ~view
          ~self ~callbacks:Stack.null_callbacks ())
      pids
  in
  let wire_bytes () =
    Registry.counter_total (Registry.snapshot registry)
      ~layer:Repro_obs.Event.Transport ~name:"wire_bytes"
  in
  let before = wire_bytes () in
  let origin = List.hd stacks in
  Stack.multicast origin 42;
  let copies =
    match Stack.pc_neighbors origin with
    | Some neighbors -> Array.length neighbors
    | None -> n - 1
  in
  match !data_frames with
  | [] -> Alcotest.fail "no data frame sent"
  | f :: _ as frames ->
    Alcotest.(check int) "one frame call per recipient" copies
      (List.length frames);
    Alcotest.(check bool) "every copy is the same frame" true
      (List.for_all (String.equal f) frames);
    Alcotest.(check int) "every copy charged" (copies * String.length f)
      (wire_bytes () - before)

(* --- suite ---------------------------------------------------------------- *)

let () =
  Alcotest.run "wire_codec"
    [
      ( "roundtrip",
        List.map QCheck_alcotest.to_alcotest
          [ test_roundtrip; test_roundtrip_shared_codec ] );
      ( "rejection",
        List.map QCheck_alcotest.to_alcotest
          [ test_truncation_rejected; test_trailing_garbage_rejected;
            test_garbage_never_escapes ]
        @ [
            Alcotest.test_case "unknown tags" `Quick test_unknown_tags_rejected;
            Alcotest.test_case "over-long varint" `Quick
              test_overlong_varint_rejected;
            Alcotest.test_case "empty vectors" `Quick
              test_empty_vector_rejected;
            Alcotest.test_case "negative counts" `Quick
              test_negative_count_rejected;
          ] );
      ( "varints",
        List.map QCheck_alcotest.to_alcotest
          [ test_varint_primitives; test_uvarint_primitives ] );
      ( "memo",
        List.map QCheck_alcotest.to_alcotest
          [ test_memo_transparent; test_data_bytes_is_serialized_length ] );
      ( "framing",
        [ Alcotest.test_case "transport frames every send" `Quick
            test_transport_frames_every_copy;
          Alcotest.test_case "bss multicast frames every copy" `Quick
            (test_multicast_frames_every_copy Config.Vector_causal);
          Alcotest.test_case "pc multicast frames every copy" `Quick
            (test_multicast_frames_every_copy Config.Pc_causal) ] );
      ( "metadata",
        [ Alcotest.test_case "pc constant wire cost" `Quick
            test_pc_constant_metadata;
          Alcotest.test_case "pc zero stamp shared" `Quick
            test_pc_zero_stamp_shared ] );
    ]
