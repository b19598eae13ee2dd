(** A network endpoint for one simulated process: owns the transport and
    demultiplexes incoming wire messages to {e per-group} protocol handlers
    and an application handler.

    One endpoint exists per process; a process may belong to several
    process groups (Section 5's "causal domains"), each registered under
    its group id. Plain nodes (clients, shared databases — the paper's
    "hidden channels") are endpoints with no registered groups. *)

type 'a t

val create :
  ?obs:Repro_obs.Log.t ->
  ?registry:Repro_obs.Registry.t ->
  ?framing:'a Wire.t Transport.framing ->
  engine:'a Wire.t Transport.packet Engine.t ->
  self:Engine.pid ->
  mode:Config.transport_mode ->
  ?on_direct:(src:Engine.pid -> 'a -> unit) ->
  unit ->
  'a t
(** Installs itself as the engine handler for [self]. [obs], [registry]
    and [framing] are handed to the transport (retransmission telemetry,
    wire-byte metrics and the {!Config.Encoded} wire path). *)

val register_group :
  'a t -> group:int -> lists:(Engine.pid -> bool) ->
  (src:Engine.pid -> 'a Wire.proto -> unit) -> unit
(** Route protocol messages of [group] to the given handler (replacing any
    previous registration for that id). [lists p] says whether the group's
    current view has member [p]; {!peer_left} asks it. *)

val peer_left : 'a t -> Engine.pid -> unit
(** A group on this endpoint installed a view without [pid]. When no
    registered group lists [pid] any more, it is treated as failed: the
    transport gives up its unacked segments to [pid]
    ({!Transport.give_up}), an unacked direct message included. While
    another group still lists [pid], its link keeps retransmitting. *)

val send_wire : 'a t -> dst:Engine.pid -> 'a Wire.t -> unit
(** Send one wire value. A fan-out builds its [Wire.Proto (group, p)] once
    and passes the same value for every destination, so the copies share
    it (and the codec's one-slot frame memo, keyed on the physical [Data]
    record, encodes it once). The shared value and everything it points to
    must never be mutated after the first send. *)

val send_direct : 'a t -> dst:Engine.pid -> 'a -> unit

val set_on_direct : 'a t -> (src:Engine.pid -> 'a -> unit) -> unit

val packets_sent : 'a t -> int
