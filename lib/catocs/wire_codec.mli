(** Compact binary encoding of {!Wire} messages.

    The structural simulation path ships OCaml values directly and {e
    estimates} wire cost ({!Wire.header_bytes}); this codec produces the
    actual bytes so byte gauges and batching operate on real frames. The
    format is a length-prefixed frame:

    {v frame := uvarint(len(body)) body v}

    where the body is a tag byte followed by LEB128 varints (zigzag for
    fields that may be negative, plain for counts/lengths/clock
    components). Vector timestamps are [count, component...]; a data
    record under [Pc_meta] ships only the count, because its stamp is all
    zero and its sequence travels as [origin_seq] (see {!Wire.seq}). The
    decoder gives every such record the codec's one all-zero stamp of that
    size, kept until a frame of another size parses. A frame that raises
    {!Corrupt} leaves the kept stamp as it was, and one rejected before
    its PC record has parsed allocates no stamp. That keeps
    PC-broadcast per-message metadata constant in group size on the {e
    encoded} wire, not just in the estimate, and allocates no vector per
    received record.

    A fan-out is serialized once, not once per recipient: a one-slot frame
    memo keeps the last frame keyed on the group id and the {e physical
    identity} of the [Data] record, or of the [Gossip] proto value, and
    {!encode} returns that same string for every further copy. The
    contract this rests on: a record or gossip handed to {!encode} is
    never mutated afterwards (multicast stamps are fresh snapshots or a
    PC view's shared zero stamp, and gossip clocks are [Vector_clock.copy]
    snapshots). PC forwarding, flush re-sends and pong retransmissions
    re-encode decoded records; those are never mutated either. The memo
    saves the serialization only: the transport still calls its [frame]
    hook once per copy and charges every copy's bytes.

    A decoded [Gossip]'s vector is {e borrowed}: it is the codec's reused
    decode target for vectors of that size, valid until the next {!decode}
    on the same codec. A receiver merges it by value and keeps no
    reference (the transport parks out-of-order frames undecoded). Decoded
    data records are kept: {!Stability} buffers them until they are
    stable. They borrow nothing a later decode overwrites. A [Pc_meta]
    record's stamp is shared with every other record of that size, and
    nothing writes it. Every other decoded field is fresh.

    Decoding is strict: unknown tags, truncated buffers, over-long varints
    (more than nine bytes for a 63-bit int), negative or implausible
    counts, empty vectors and trailing garbage all raise {!Corrupt} —
    never a mangled value. *)

exception Corrupt of string

type 'a payload_codec = {
  encode_payload : Buffer.t -> 'a -> unit;
  decode_payload : bytes -> int ref -> 'a;
      (** read from the current position (advancing it); raise {!Corrupt}
          on malformed input rather than consuming past the frame *)
}

val int_payload : int payload_codec
(** Zigzag varint — the payload type every experiment driver uses. *)

type 'a t
(** Codec instance: payload codec plus the frame memo and scratch
    buffers. One per process (instances are not thread-safe; under the
    parallel engine each process — and so each codec — is owned by one
    domain). *)

val create : 'a payload_codec -> 'a t

val encode : 'a t -> 'a Wire.t -> string
(** Complete frame, length prefix included. Consecutive encodes of one
    physical [Data] record or [Gossip] under one group return
    the memoized string; the bytes are those a fresh codec would produce. *)

val decode : 'a t -> string -> 'a Wire.t
(** Inverse of {!encode} on exactly one frame; raises {!Corrupt} on any
    malformed or trailing input. A [Gossip] vector in the result is
    overwritten by the next decode (see above). *)

val data_bytes : 'a t -> 'a Wire.data -> int
(** Encoded size of one data record (piggyback included) — the real-bytes
    replacement for {!Wire.buffered_bytes} that {!Stability} charges its
    unstable-bytes gauges with under {!Config.Encoded}. Excludes the
    frame length prefix and group-id envelope: those are per-packet link
    costs, not buffer contents. Serializes the record into the scratch
    buffer; it leaves the frame memo alone. *)

(** {2 Varint primitives} — exposed for the round-trip test battery and
    micro-benchmarks. *)

val write_varint : Buffer.t -> int -> unit
(** Zigzag + LEB128 (any int). *)

val read_varint : bytes -> int ref -> int

val write_uvarint : Buffer.t -> int -> unit
(** Plain LEB128; the argument must be non-negative. *)

val read_uvarint : bytes -> int ref -> int
(** Raises {!Corrupt} on a truncated varint or one longer than nine bytes
    (a 63-bit int needs at most nine 7-bit groups). *)

val varint_size : int -> int
val uvarint_size : int -> int
