(** Point-to-point transport over the simulated network.

    In [Bare] mode packets are forwarded as-is (the network may reorder but
    the CATOCS delivery conditions tolerate that; loss would block delivery
    forever, so lossy configurations should use [Reliable]).

    In [Reliable] mode each peer pair runs a sequence-numbered channel with
    in-order reassembly — the paper's "conventional transport protocol
    ordering" alternative. The policy is go-back-N: the receiver acks
    cumulatively on every segment; every [rto], each unacked segment on the
    link is resent, oldest first; a segment is dropped silently after
    [max_retries] resends, which wedges that link for good (the receiver
    never sees its sequence number, so nothing after it is delivered). *)

type 'w packet =
  | Seg of { seq : int; payload : 'w }
  | Raw of 'w
  | Ack of { upto : int }
  | Enc of { seq : int; frame : string }
      (** one encoded frame ({!Config.Encoded}); [seq] sequences
          [Fifo_order] links and is [-1] on [Bare] links *)
  | Enc_batch of { first_seq : int; frames : string list }
      (** same-destination frames coalesced within one
          {!Config.t.batch_window}; frame [i] carries sequence
          [first_seq + i] ([-1] again means unsequenced) *)

type 'w framing = { frame : 'w -> string; unframe : string -> 'w }
(** Wire codec hooks (see {!Wire_codec}); kept abstract here so the
    transport stays payload-agnostic. Per-copy contract: every {!send}
    on a framed link calls [frame] exactly once and charges that frame's
    length to {!wire_bytes_sent}, so an N-destination fan-out makes N
    calls and charges N frames even when the codec hands back one
    memoized string for all of them. *)

type 'w t

val create :
  ?obs:Repro_obs.Log.t ->
  ?registry:Repro_obs.Registry.t ->
  ?framing:'w framing ->
  ?batch_window:Sim_time.t ->
  engine:'w packet Engine.t ->
  self:Engine.pid ->
  mode:Config.transport_mode ->
  on_deliver:(src:Engine.pid -> 'w -> unit) ->
  unit ->
  'w t
(** The caller must route the engine envelopes of [self] to {!handle}.
    With [obs], every [Reliable]-mode retransmission emits an
    [Obs.Event.Retransmit] record. With [registry], the transport keeps
    [transport/packets], [transport/batches] and [transport/link_sends]
    counters plus per-link
    [transport/wire_bytes{dst}] cells (encoded path only — the structural
    path has no real frames to weigh).

    With [framing], sends on [Bare]/[Fifo_order] links are encoded to
    real frames ([Enc] packets); a [Reliable] transport ignores framing
    and keeps structural segments. A positive [batch_window] (default
    zero) additionally coalesces same-destination frames: the first send
    arms a per-destination flush timer and everything framed for that
    destination within the window leaves as one [Enc_batch]. Raises
    [Invalid_argument] if a batch window is requested without framing or
    under [Reliable] (retransmit bookkeeping is per-segment). *)

val send : 'w t -> dst:Engine.pid -> 'w -> unit
val handle : 'w t -> 'w packet Engine.envelope -> unit

val packets_sent : 'w t -> int
(** Total packets emitted including acks and retransmissions. Each frame
    of a batch counts as one packet (the batch envelope itself is free),
    so this stays comparable across batching configurations. *)

val retransmissions : 'w t -> int

val batches_sent : 'w t -> int
(** Number of [Enc_batch] packets emitted (coalescings of two or more
    frames). *)

val wire_bytes_sent : 'w t -> int
(** Sum of encoded frame lengths sent on this transport; zero on the
    structural path. *)

val link_sends : 'w t -> int
(** Physical link events (packets put on the network); a batch counts once
    here but once per frame in {!packets_sent}, so
    [packets_sent /. link_sends] is the batching coalesce ratio. *)

val pp_packet :
  (Format.formatter -> 'w -> unit) -> Format.formatter -> 'w packet -> unit
