(** PC-broadcast causal-layer bookkeeping.

    Per-view state for the constant-metadata causal delivery implementation
    ({!Config.causal_impl} = [Pc_causal]): the dissemination overlay, the
    per-link ping/pong barrier for links created by a view change, the
    arrival-link record behind forward-on-first-delivery, and operational
    counters. The delivery machinery lives in {!Stack}, which pairs this
    with the FIFO-gap delivery queue and the regular stability tracker.

    Causal-order argument (Nédelec et al., SRDS 2018): over FIFO links, a
    member that forwards every message on first delivery — before anything
    it subsequently sends — makes each incoming link's receive order
    causally consistent; a per-origin contiguity gate then yields full
    causal order with O(1) control information per message. *)

val chaos_disable_forwarding : bool ref
(** Mutation-test hook: suppress forward-on-first-delivery, degrading PC to
    plain FIFO links. Cross-origin causality is then violated under
    reordering networks and the checker's causal oracle must convict. *)

type stats = {
  mutable forwards : int;
  mutable duplicates_dropped : int;
  mutable barrier_deferred : int;
  mutable barrier_retransmits : int;
  mutable pings_sent : int;
  mutable pongs_sent : int;
}

type t

val create :
  Config.t -> rank:int -> group_size:int -> link_fresh:(int -> bool) -> t
(** [link_fresh peer_rank] marks links that must complete the ping/pong
    barrier before data flows (links involving a member new to the view);
    the rest start open. *)

val neighbors : t -> int array
(** Overlay neighbor ranks, ascending. *)

val stats : t -> stats

val zero_stamp : t -> Vector_clock.t
(** The all-zero stamp of group size that every multicast of this view
    carries as its [vt] under [Wire.Pc_meta]: one per view, shared by every
    record, and never written. The sequence travels as [origin_seq]. *)

val link_open : t -> peer_rank:int -> bool

val fresh_links : t -> int list
(** Neighbor ranks still awaiting a pong. *)

val open_link : t -> peer_rank:int -> unit

val is_queued : t -> Wire.msg_id -> bool
val note_queued : t -> msg_id:Wire.msg_id -> from_rank:int -> unit
val note_duplicate : t -> unit

val take_arrival : t -> Wire.msg_id -> int
(** Pop the recorded first-arrival link rank; [-1] when the message arrived
    out of band (flush re-send, replay). *)

val iter_forward_targets :
  t -> from_rank:int -> origin_rank:int -> (int -> unit) -> unit
(** Apply the function to each open-link neighbor rank except the arrival
    link and the origin, in ascending rank order, without building a list;
    no calls when {!chaos_disable_forwarding} is set. *)

val missing_for :
  delivered:Vector_clock.t -> 'a Wire.data list -> 'a Wire.data list
(** Filter an unstable buffer (msg-id order) down to the messages a peer
    reporting [delivered] is missing — the pong-triggered link-establishment
    retransmission set. *)
