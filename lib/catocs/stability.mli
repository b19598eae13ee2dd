(** Message-stability tracking and the unstable-message buffer.

    A multicast is {e stable} once known to be received at every group
    member; until then every member buffers it so the group can re-supply it
    if the sender fails (atomic delivery, Section 2). Knowledge spreads via
    the vector timestamps piggybacked on data messages and via periodic
    gossip; a matrix clock summarises it.

    Section 5's scaling claim is about precisely this buffer: every add
    raises the member's {!Metrics} peaks to this tracker's occupancy.

    The buffer is a set of per-sender sequence-ordered deques released off
    the matrix clock's cached column minima: a release pass pops only the
    messages whose sequence number just crossed an advanced minimum,
    amortized O(newly stable) instead of an O(buffer x group) rescan of the
    whole buffer. On any delivery-legal call sequence it releases exactly
    the [(msg_id, release-time)] sets such a full rescan would; the
    differential tests in [test/test_stability_equiv.ml] check that. *)

type 'a t

val create :
  ?clock:Group_clock.impl ->
  ?bytes_of:('a Wire.data -> int) ->
  ?obs:Repro_obs.Log.t * int ->
  ?registry:Repro_obs.Registry.t ->
  group_size:int ->
  metrics:Metrics.t ->
  graph:Causality.t option ->
  unit ->
  'a t
(** [clock] selects the matrix-clock representation (default [Dense] — see
    {!Config.stability_clock}). [bytes_of] is the per-message byte
    accounting used by the unstable-bytes gauges — default
    {!Wire.buffered_bytes} (the header estimate); the {!Config.Encoded}
    wire path passes {!Wire_codec.data_bytes} so gauges charge real encoded
    sizes. It must
    be a pure function of the message (it is re-applied on release).
    [obs] is the telemetry log plus the owning process id: every release
    then emits an [Obs.Event.Span_stable] record. [registry] adds a
    [stability/stability_lag_us] histogram fed on every release (the only
    record of the send-to-stability lag) and a
    [stability/minima_advances] counter bumped each time a cached matrix
    minimum advances (the events that drive releases). *)

val note_sent_or_delivered : 'a t -> 'a Wire.data -> unit
(** Buffer a message (sender buffers its own multicasts immediately; members
    buffer on delivery). Merges the message's timestamp into the origin's
    matrix row. Idempotent per message id. Within one instance, calls for a
    given sender must arrive in ascending sequence order — the causal/FIFO
    delivery condition guarantees this. *)

val note_delivered_diag : 'a t -> 'a Wire.data -> unit
(** {!note_sent_or_delivered} for a PC record ([Wire.Pc_meta]): the
    sender-row merge is the single diagonal cell at {!Wire.seq}, O(1)
    instead of an O(group) row merge, and the record's all-zero stamp is
    never read or adopted. It behaves as {!note_sent_or_delivered} would on
    a stamp that is {!Wire.seq} at the sender's component and zero
    elsewhere. *)

val observe_vc :
  'a t -> live:bool -> rank:int -> now:Sim_time.t -> Vector_clock.t -> unit
(** Merge member [rank]'s reported vector clock and release newly stable
    messages; each release records its send-to-stability lag ([now] minus
    the message's send time) into the [stability_lag_us] histogram. [live]
    says whether [vc] changes after the call: our own running clock, or a
    gossip vector borrowed from the codec's decode target
    ({!Wire_codec.decode}). A live vector is merged by value; otherwise
    a sparse matrix clock may adopt it by reference (see
    {!Group_clock.update_row}). *)

val self_observe_cell :
  'a t -> rank:int -> col:int -> seq:int -> now:Sim_time.t -> unit
(** [observe_vc ~live:true] specialised to a clock that advanced only at
    component [col] (to [seq]) since it was last observed — the
    per-delivery case, where [causal_deliver] bumps exactly the sender's
    component. O(1) cell merge plus the usual release pass; identical
    observable behavior to passing the full clock. *)

val unstable : 'a t -> 'a Wire.data list
(** Current unstable messages, ordered by message id (deterministic). *)

val unstable_count : 'a t -> int
val unstable_bytes : 'a t -> int

val matrix : 'a t -> Group_clock.t
(** The tracker's matrix clock (read-only; for probes and tests). *)
