(** Total-order release queues.

    {!Sequencer_queue} implements the receiver side of sequencer-based total
    order (ABCAST): causally delivered messages are held until the
    sequencer's order for them arrives and every earlier global sequence
    number has been released.

    {!Lamport_queue} implements decentralised total order by Lamport
    timestamps: a message is released once its stamp is known to be minimal
    — every group member has been observed at a later logical time. Progress
    relies on gossip, which is precisely the Section 5 point that quiet
    members stall totally ordered delivery. *)

module Sequencer_queue : sig
  type 'a t

  val create : ?obs:Repro_obs.Log.t * int -> unit -> 'a t
  (** [obs] = telemetry log + owner pid: {!add_data} then emits
      [Obs.Event.Span_queued] stamped with the message's arrival time. *)

  val add_data : 'a t -> 'a Delivery_queue.pending -> unit
  val add_order : 'a t -> msg_id:Wire.msg_id -> global_seq:int -> unit

  val take_ready : 'a t -> 'a Delivery_queue.pending option
  (** Next message in contiguous global-sequence order, if its data has
      arrived. *)

  val data_count : 'a t -> int
  (** Number of held data messages, O(1) (sampled by metrics loops). *)

  val drain : 'a t -> 'a Delivery_queue.pending list
  (** Remove and return the data held without a released order yet, in
      stamping order (the view-change leftovers). *)

  val known_orders : 'a t -> (Wire.msg_id * int) list
  (** Every (message, global sequence) assignment seen this view, released
      or not, sorted by sequence. Carried in flush messages so that peers
      the crashed sequencer never reached still adopt its order. *)
end

module Lamport_queue : sig
  type 'a t

  val create : ?obs:Repro_obs.Log.t * int -> group_size:int -> unit -> 'a t
  (** [obs] as in {!Sequencer_queue.create}, emitted on {!add}. *)

  val add : 'a t -> 'a Delivery_queue.pending -> stamp:Lamport.stamp -> unit

  val observe_time : 'a t -> rank:int -> int -> unit
  (** Record that [rank] has been seen at Lamport time [>= t] (from a data
      message or gossip). *)

  val take_ready : 'a t -> 'a Delivery_queue.pending option
  (** The minimal-stamp message, if every rank has been observed at a
      strictly later time. *)

  val length : 'a t -> int
  (** Number of held messages, O(1) (sampled by metrics loops). *)

  val drain : 'a t -> 'a Delivery_queue.pending list
  (** Remove and return every held message, in stamp order (the
      view-change leftovers). *)
end
