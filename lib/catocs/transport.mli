(** Point-to-point transport over the simulated network.

    In [Bare] mode packets are forwarded as-is (the network may reorder but
    the CATOCS delivery conditions tolerate that; loss would block delivery
    forever, so lossy configurations should use [Reliable]).

    In [Reliable] mode each peer pair runs a sequence-numbered channel with
    in-order reassembly — the paper's "conventional transport protocol
    ordering" alternative. The policy is go-back-N: the receiver acks
    cumulatively on every segment; every [rto], each unacked segment on the
    link is resent, oldest first; a segment is dropped silently after
    [max_retries] resends, or at once when the membership layer has
    removed its destination from every view ({!give_up}), which wedges
    that link for good (the receiver never sees its sequence number, so
    nothing after it is delivered). *)

type 'w packet =
  | Seg of { seq : int; payload : 'w }
  | Raw of 'w
  | Ack of { upto : int }
  | Enc of { seq : int; frame : string }
      (** one encoded frame ({!Config.Encoded}); [seq] sequences
          [Fifo_order] and [Reliable] links and is [-1] on [Bare] links *)

type 'w framing = { frame : 'w -> string; unframe : string -> 'w }
(** Wire codec hooks (see {!Wire_codec}); kept abstract here so the
    transport stays payload-agnostic. Per-copy contract: every {!send}
    on a framed link calls [frame] exactly once, and every transmission
    of the frame (a [Reliable] retransmission included) charges its
    length to {!wire_bytes_sent}, so an N-destination fan-out makes N
    calls and charges N frames even when the codec hands back one
    memoized string for all of them. Per-delivery contract: a receiver
    calls [unframe] only when it hands the frame up, in order; a
    [Fifo_order] or [Reliable] link parks out-of-order frames undecoded.
    So [unframe] may return values that borrow storage it reuses on its
    next call. *)

type 'w t

val create :
  ?obs:Repro_obs.Log.t ->
  ?registry:Repro_obs.Registry.t ->
  ?framing:'w framing ->
  engine:'w packet Engine.t ->
  self:Engine.pid ->
  mode:Config.transport_mode ->
  on_deliver:(src:Engine.pid -> 'w -> unit) ->
  unit ->
  'w t
(** The caller must route the engine envelopes of [self] to {!handle}.
    With [obs], every [Reliable]-mode retransmission emits an
    [Obs.Event.Retransmit] record. With [registry], the transport keeps a
    [transport/packets] counter plus per-link
    [transport/wire_bytes{dst}] cells (encoded path only — the structural
    path has no real frames to weigh).

    With [framing], every send is encoded to a real frame (an [Enc]
    packet), whatever the link mode. *)

val send : 'w t -> dst:Engine.pid -> 'w -> unit
val handle : 'w t -> 'w packet Engine.envelope -> unit

val give_up : 'w t -> dst:Engine.pid -> unit
(** Drop every unacked segment to [dst] now, as [max_retries] would drop
    each of them later: [dst] has failed, and resending to it only costs
    packets. The link keeps its next sequence number, so the given-up
    segments wedge it as any give-up does: should [dst] be alive after
    all, nothing sent to it later is delivered. A no-op on [Bare] and
    [Fifo_order] links (nothing is resent) and for a [dst] never sent
    to. *)

val packets_sent : 'w t -> int
(** Total packets emitted including acks and retransmissions. *)

val retransmissions : 'w t -> int

val wire_bytes_sent : 'w t -> int
(** Sum of encoded frame lengths sent on this transport; zero on the
    structural path. *)
