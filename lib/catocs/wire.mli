(** Wire format of the CATOCS stack.

    An application instantiates the simulator engine at
    ['a Wire.t Transport.packet]: protocol messages and out-of-band
    ("hidden channel") application messages share the same network. *)

type msg_id = int

type order_meta =
  | Fifo_meta
      (** per-sender FIFO only; the timestamp is used solely for gap
          detection and stability *)
  | Causal_meta
      (** full vector-clock causal delivery (CBCAST) *)
  | Seq_meta
      (** causal delivery plus sequencer-assigned total order (ABCAST) *)
  | Lamport_meta of Lamport.stamp
      (** total order by Lamport timestamp, released on stability *)
  | Pc_meta of { origin_seq : int }
      (** PC-broadcast causal delivery: the only wire-carried control
          information is the origin's per-view send sequence — O(1) in
          group size. Every layer reads it through {!seq}. The record's
          [vt] is an all-zero stamp of group size that nothing writes: a
          sender shares one per view across all its multicasts, a codec
          shares one across all the records it decodes, and only its size
          travels. It is not charged to {!header_bytes}. *)

type 'a data = {
  msg_id : msg_id;
  trace_id : msg_id;
      (** causal-path trace identifier, stamped at the origin and carried
          unchanged by every forwarded/resent copy so the full dissemination
          tree can be reassembled from hop records. Normally equals
          [msg_id]; the {!Config.Encoded} wire carries it as a one-byte
          zigzag delta off [msg_id] in that common case. Not charged to the
          structural {!header_bytes}/{!wire_bytes} models. *)
  origin : Engine.pid;
  sender_rank : int;  (** rank in the view the message was sent in *)
  view_id : int;
  vt : Vector_clock.t;
      (** sender's vector timestamp at send; all zero under [Pc_meta] *)
  meta : order_meta;
  payload : 'a;
  payload_bytes : int;
  sent_at : Sim_time.t;
      (** original multicast instant (simulator convenience for end-to-end
          latency metrics; survives flush re-sends) *)
  piggyback : 'a data list;
      (** causal predecessors appended by the sender (Section 3.4 footnote
          4 variant); empty unless [Config.piggyback_history] *)
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
          (** sequencer assignments known to the sender, as (view id,
              message, global sequence number): its installed view's, so
              survivors agree on the old view's total order even if the
              sequencer died mid-broadcast, and those of views it was
              left out of (global sequence numbers restart per view) *)
    }
      (** flush round: re-multicast of the sender's unstable messages *)
  | Flush_done of { new_view_id : int; from : Engine.pid }
  | New_view of { view_id : int; members : Engine.pid list }
  | Join_request of { joiner : Engine.pid }
  | State_transfer of { view_id : int; state : string }
  | Pc_ping of { view_id : int; from_rank : int }
      (** PC-broadcast link barrier: sent on every fresh overlay link at
          view install; the peer answers with {!Pc_pong} *)
  | Pc_pong of { view_id : int; from_rank : int; delivered : Vector_clock.t }
      (** opens the link: [delivered] is the responder's per-origin
          delivered counts, so the sender can retransmit exactly the
          unstable messages the peer is missing (one O(group) control
          message per link establishment, amortised over the epoch) *)

type 'a t =
  | Proto of int * 'a proto
      (** protocol message of the given process group *)
  | Direct of 'a  (** out-of-band point-to-point application message *)

val seq : 'a data -> int
(** The record's per-sender sequence number: [origin_seq] under [Pc_meta],
    the timestamp's [sender_rank] component under every other meta. *)

val header_bytes : 'a data -> int
(** Ordering-header overhead this message carries on the wire, by meta kind:
    FIFO costs a sequence number, causal/sequenced cost a full vector
    timestamp, Lamport costs a scalar stamp. *)

val buffered_bytes : 'a data -> int
(** Bytes this message occupies in a stability buffer (payload + header),
    excluding any piggybacked history. *)

val wire_bytes : 'a data -> int
(** Bytes on the wire including piggybacked predecessors. *)

val compare_stamping : 'a data -> 'b data -> int
(** Stamping order: [(sent_at, msg_id)] — the causally consistent total
    order the recovery paths (flush unstable exchange, pong-triggered
    retransmission, skipped-view replay) must transmit or deliver in.
    [sent_at] is monotone along causal chains under {e both} msg-id
    schemes; raw [msg_id] order is equivalent only under the sequential
    engine's global counter, not the parallel engine's per-sender strided
    ids. Ties (concurrent same-instant sends) break by [msg_id]. *)

val pp : (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a t -> unit
