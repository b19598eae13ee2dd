(** One group member's CATOCS protocol instance.

    A stack implements, per the configured {!Config.ordering}:

    - FBCAST: per-sender FIFO multicast (the non-CATOCS baseline),
    - CBCAST: vector-clock causal multicast with the
      Birman-Schiper-Stephenson delivery condition,
    - ABCAST: CBCAST plus a sequencer (the lowest-ranked member) assigning a
      single total order,
    - Lamport total order: delivery in timestamp order once stable.

    All modes provide atomic ("all surviving members or none") delivery via
    unstable-message buffering and a flush-based view-change protocol in the
    virtual synchrony style: on failure notification members suppress
    sending, exchange unstable messages, and install the next view only when
    every survivor holds every message any survivor delivered. Delivery is
    atomic but {e not durable} — exactly the Section 2 gap, which
    {!inject_partial_multicast} exists to demonstrate.

    Every view install (after a flush, or a joiner's first view) resets all
    per-view state at once: rank, vector clock, delivery queue, total-order
    state ({!Total_order.t}), stability tracker, PC overlay and counters,
    and duplicate suppression — dedupe is per view, since a message is
    accepted only while its view is installed. The Lamport clock, metrics,
    failure records, outbox and messages that arrived early for a later
    view carry over. Gossip always advances the Lamport clock, so gossip
    frames do not depend on the ordering.

    View-change protocol note: flush rounds assume the flush control
    messages themselves are not lost; configure [Reliable] transport when
    running with message loss. *)

type 'a callbacks = {
  deliver : sender:Engine.pid -> 'a -> unit;
  view_change : Group.view -> unit;
      (** invoked after the new view is installed *)
  member_failed : Engine.pid -> unit;
      (** ordered failure notification: after all of the failed member's
          surviving messages have been delivered *)
  direct : src:Engine.pid -> 'a -> unit;
      (** out-of-band point-to-point messages *)
}

val null_callbacks : 'a callbacks

type shared
(** Group-wide context: message-id allocation, the shared active causal
    graph, and the id index used to materialise graph arcs. *)

val make_shared : ?group_id:int -> ?obs:Repro_obs.Log.t -> Config.t -> shared
(** Group ids default to a fresh id from a global counter; pass one only to
    pin a stable identifier. [obs] attaches a telemetry log shared by every
    stack of the group: each member then emits lifecycle span events
    (send/recv/queued/delivered/stable), view-flush markers and retransmit
    instants into it (see {!Repro_obs.Event}). *)

val shared_graph : shared -> Causality.t option
val group_id : shared -> int

type 'a t

val create :
  ?endpoint:'a Endpoint.t ->
  ?payload_codec:'a Wire_codec.payload_codec ->
  engine:'a Wire.t Transport.packet Engine.t ->
  shared:shared ->
  config:Config.t ->
  view:Group.view ->
  self:Engine.pid ->
  callbacks:'a callbacks ->
  unit ->
  'a t
(** [endpoint] lets several stacks (one per group) share one process's
    endpoint — a process may belong to many groups; by default a fresh
    endpoint is created and the stack is its only group.

    [payload_codec] is required when [config.wire_format = Encoded] (and
    the stack creates its own endpoint): the fresh endpoint then frames
    every message through {!Wire_codec}, and unstable-bytes gauges charge
    real encoded sizes. Raises [Invalid_argument] if [Encoded] is
    configured without a codec. A caller-supplied shared [endpoint] keeps
    whatever framing it was created with. *)

val create_group :
  ?obs:Repro_obs.Log.t ->
  ?payload_codec:'a Wire_codec.payload_codec ->
  engine:'a Wire.t Transport.packet Engine.t ->
  config:Config.t ->
  names:string list ->
  unit ->
  'a t array
(** Spawn one process per name, form the initial view over all of them, and
    return their stacks (in name order). Every stack starts with
    {!null_callbacks}; install the application's with {!set_callbacks}
    before {!Engine.run}, since no callback fires earlier. [obs] is
    threaded to {!make_shared}, [payload_codec] to {!create}. *)

val multicast : 'a t -> 'a -> unit
(** Multicast to the current view. During a flush, sends are queued and
    transmitted once the new view is installed (send suppression). *)

val send_direct : 'a t -> dst:Engine.pid -> 'a -> unit

val set_callbacks : 'a t -> 'a callbacks -> unit

val self : 'a t -> Engine.pid
val shared_of : 'a t -> shared
val config_of : 'a t -> Config.t
val view : 'a t -> Group.view
val metrics : 'a t -> Metrics.t

val registry : 'a t -> Repro_obs.Registry.t
(** The stack's protocol-metrics registry; disabled (all-scrap) unless the
    stack was created with [Config.metrics = true]. Per-stack instances
    from one group [Registry.merge] into domain-count-independent totals. *)

val chaos_drop_forward_copy_metric : bool ref
(** Test-only fault injection: when set, PC forward copies are still sent
    (and still logged as hops) but the [ordering/forward_copies] counter is
    not bumped, so the copy-conservation watchdog must report the
    discrepancy. Reset to [false] after use. *)

val unstable_count : 'a t -> int
val pending_count : 'a t -> int
(** Messages currently blocked in ordering queues. *)

val stability_clock : 'a t -> Group_clock.t
(** The current view's stability matrix clock (read-only; for probes of
    its row sharing). *)

val pc_stats : 'a t -> Pc_causal.stats option
(** PC-broadcast operational counters (forwards, duplicates, barrier
    traffic); [None] unless [Config.pc_active]. The PC state is rebuilt on
    every view install, so counters are per-view, not per-lifetime. *)

val pc_neighbors : 'a t -> int array option
(** Current overlay neighbor ranks; [None] unless [Config.pc_active]. *)

val record_gauges : 'a t -> unit
(** Sample this member's occupancy gauges (unstable msgs/bytes, delivery
    queue depth, blocked count) into the group's telemetry log, stamped at
    the engine's current time. O(1); a no-op when the group has no log or
    logging is disabled. Meant to be driven periodically via
    [Engine.every]. *)

val is_flushing : 'a t -> bool

val is_ejected : 'a t -> bool
(** True once the group removed this member (its crash was detected — or,
    under heartbeat detection with loss, it was falsely suspected), and
    after {!shutdown}. An ejected stack is inert; the process re-joins with
    a fresh stack. The application is told of a removal through
    [member_failed] with its own pid. *)

val inject_partial_multicast : 'a t -> 'a -> recipients:Engine.pid list -> unit
(** Fault injection: perform a multicast whose network sends reach only
    [recipients] (the local copy is still processed), modelling a sender
    crash mid-multicast. Used by the durability-gap experiment. *)

val set_state_handlers :
  'a t -> get:(unit -> string) -> set:(string -> unit) -> unit
(** Application-state transfer hooks for joins: [get] is called on the view
    coordinator when a member is admitted (after all old-view deliveries,
    so every member would produce the same snapshot); [set] is called on
    the joiner before its first delivery in the new view. The encoding of
    the string is the application's business. Defaults: empty snapshot,
    ignored on receipt. *)

val join :
  ?endpoint:'a Endpoint.t ->
  ?payload_codec:'a Wire_codec.payload_codec ->
  engine:'a Wire.t Transport.packet Engine.t ->
  shared:shared ->
  config:Config.t ->
  self:Engine.pid ->
  contact:Engine.pid ->
  callbacks:'a callbacks ->
  unit ->
  'a t
(** Ask to join an existing group through [contact] (any member). The
    request is forwarded to the view coordinator, which runs a flush and
    installs a view containing the joiner; the joiner receives the new view
    and a state transfer, then starts delivering. The request retries every
    500ms until admitted, so a crashed contact or an interrupted round is
    survived. Multicasts issued while joining are queued and sent in the
    first installed view. A process that crashed and recovered rejoins with
    a {e fresh} stack via this function (its old stack is stale; see
    {!shutdown}). Re-joining under the old pid works over [Bare] transport
    only: over [Fifo_order] and [Reliable] the fresh stack's transport
    restarts each link at sequence 0 while the peers keep their old
    streams, so their [New_view] waits forever as out of order and the
    re-joiner stays joining although the group's view lists it. *)

val shutdown : 'a t -> unit
(** Detach a stale stack: stops its gossip and heartbeat timers and makes
    it inert, as an ejected stack is: it sends nothing, and a later crash
    starts no flush on it. Used when a recovered process abandons its
    pre-crash stack to re-join with a new one. *)
