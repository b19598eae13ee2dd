(** The total-order layer: it owns each view's total-order state and the
    policy that releases causally delivered messages in one group-wide
    order. A {!t} is built per view from [Config.ordering]; the rest of the
    stack calls the functions below and never asks which ordering runs.
    [Delivery] keeps the sending (the sequencer's [Seq_order] broadcast)
    and the stack's Lamport clock.

    Sequencer order (ABCAST): a message is held until the sequencer's
    order for it arrives and every earlier global sequence number has been
    released. Lamport order: a message is released once its stamp is known
    to be minimal — every group member has been observed at a later
    logical time. Progress relies on gossip, which is precisely the
    Section 5 point that quiet members stall totally ordered delivery. *)

type 'a t
(** Nothing under [Fifo] and [Causal]; the sequencer queue and the next
    global sequence number under [Total_sequencer]; the Lamport queue and
    the deferred gossip under [Total_lamport]. *)

val create :
  ?obs:Repro_obs.Log.t * int -> Config.ordering -> rank:int ->
  group_size:int -> 'a t
(** This member's state for a view in which it has [rank]; rank 0 is the
    sequencer. [obs] = telemetry log + owner pid: holding a message emits
    [Obs.Event.Span_queued] stamped with its arrival time. *)

val hold : 'a t -> 'a Delivery_queue.pending -> bool
(** Take a causally delivered message: [true] if it is held for
    {!take_ready}, [false] if the caller delivers it now (no total order,
    or no Lamport stamp to order it by). *)

val assign_order : 'a t -> msg_id:Wire.msg_id -> int
(** At the sequencer, the global sequence number just given to the held
    [msg_id], for the caller to broadcast; [-1] everywhere else. *)

val add_order : 'a t -> msg_id:Wire.msg_id -> global_seq:int -> unit
(** The sequencer's order for a message. *)

val known_orders : 'a t -> view_id:int -> (int * Wire.msg_id * int) list
(** Every order seen this view, released or not, sorted by sequence, as
    ([view_id], message, global sequence number). A flush carries them, so
    that peers the crashed sequencer never reached still adopt its
    order. *)

val add_orders : 'a t -> (Wire.msg_id * int) list -> unit
(** {!add_order} for each (message, global sequence number). *)

val observe_own_clock : 'a t -> int -> unit
(** Before a release: this member's Lamport clock bounds its own future
    stamps. *)

val observe_gossip :
  'a t -> rank:int -> time:int -> sent:Vector_clock.t ->
  delivered:Vector_clock.t -> unit
(** Gossip from [rank] at Lamport [time] with vector [sent]. The time may
    gate release only once [delivered] covers every message [rank] had
    sent, or an in-flight message with a smaller stamp could be overtaken;
    until then it is deferred. *)

val apply_deferred_gossip : 'a t -> delivered:Vector_clock.t -> unit
(** Apply the deferred gossip that [delivered] now covers. *)

val take_ready : 'a t -> 'a Delivery_queue.pending option
(** The next message in total order, if it may be released. *)

val length : 'a t -> int
(** Number of held messages, O(1) (sampled by metrics loops). *)

val drain :
  'a t -> delivered:Vector_clock.t -> 'a Delivery_queue.pending list
(** Remove every held message and return the view-change leftovers to
    deliver: in stamping order (sequencer) or stamp order (Lamport). A
    Lamport leftover that depends on a message missing from [delivered]
    (the view's causally delivered clock) is dropped, with its sender's
    later messages: no survivor holds that dependency. *)

val replay_view :
  Config.ordering -> mode:Delivery_queue.mode ->
  orders:(Wire.msg_id * int) list -> 'a Delivery_queue.pending list ->
  'a Delivery_queue.pending list
(** A view's messages in the order its own members delivered them, for a
    member that never installed the view: through a [mode] delay queue
    (what stays blocked is dropped), then the sequencer's [orders] as far
    as they run contiguously and stamping order for the rest, or
    Lamport-stamp order, as a view install's {!drain} leaves them; under
    [Fifo] and [Causal], in the order the delay queue passes them. *)

(** The receiver side of sequencer order on its own, for layer replays. *)
module Sequencer_queue : sig
  type 'a t

  val create : ?obs:Repro_obs.Log.t * int -> unit -> 'a t
  val add_data : 'a t -> 'a Delivery_queue.pending -> unit
  val add_order : 'a t -> msg_id:Wire.msg_id -> global_seq:int -> unit

  val take_ready : 'a t -> 'a Delivery_queue.pending option
  (** Next message in contiguous global-sequence order, if its data has
      arrived. *)

  val data_count : 'a t -> int
  (** Number of held data messages, O(1). *)
end
