(** The causal/FIFO delay queue: holds received multicasts until their
    delivery condition against the local vector clock is satisfied.

    This is the queue whose occupancy embodies "false causality delay"
    (Section 3.4): a message sits here exactly when some message ordered
    before it by happens-before has not yet arrived. Pure data structure —
    no engine dependency — so invariants are property-testable.

    Both delivery conditions pin a message's sequence number to
    [local(sender) + 1], so each sender has one candidate slot. Messages sit
    in per-sender rings of sequence-number slots, chained in arrival order
    through their own entries. Each sender caches its candidate slot's first
    deliverable entry, whose [arrival lsl 20 lor rank] key waits in an int
    heap. A blocked candidate entry is linked into the list of the first
    clock component it lacks; the take that sees that component advance
    re-examines it. Senders and lists are arrays indexed by rank.

    Costs: an add is O(1) plus, when it lands in its sender's candidate
    slot, one O(n) condition check. A take is one O(n) scan for the clock
    components that advanced since the last take, an O(n) check per entry
    those advances re-examine, and O(log senders) on the heap. In steady
    state an add allocates its entry and a take the option it returns,
    nothing else. Among all deliverable messages, the oldest arrival is
    returned first: the order a single arrival-ordered list rescanned on
    every take would give. The differential tests in [test/] hold the queue
    to that list. *)

type mode =
  | Fifo_gap  (** deliver when [Wire.seq data = local(sender) + 1] only *)
  | Causal_full  (** full Birman-Schiper-Stephenson condition *)

type 'a pending = { data : 'a Wire.data; arrived_at : Sim_time.t }

type 'a t

val chaos_disable_causal_check : bool ref
(** Test-only fault hook: while [true], [Causal_full] queues enforce only
    the per-sender FIFO gap and ignore cross-sender dependencies — i.e. the
    Birman-Schiper-Stephenson condition is deliberately broken. Exists so
    the schedule-exploration checker ([lib/check]) can prove its causal
    oracle detects a buggy delivery condition. Never set outside tests. *)

val create : ?obs:Repro_obs.Log.t * int -> mode -> 'a t
(** [obs] is the telemetry log plus the owning process id: every {!add}
    then emits an [Obs.Event.Span_queued] record stamped with the message's
    arrival time. *)

val add : 'a t -> 'a pending -> unit

val length : 'a t -> int
(** O(1): a maintained counter, not a walk (sampled in metrics loops). *)

val take_deliverable : 'a t -> local:Vector_clock.t -> 'a pending option
(** Remove and return one message whose delivery condition holds, oldest
    arrival first among candidates (deterministic). The caller must merge the
    message's timestamp into [local] before calling again. *)

val drain : 'a t -> 'a pending list
(** Remove and return everything, in arrival order (used when discarding at
    view change). *)

val to_list : 'a t -> 'a pending list
(** Current contents in arrival order, without removing. *)
