(** The telemetry event log: a growable ring buffer of {!Event.record}s.

    A log is cheap to carry around and free when disabled. Every emitter
    takes only scalar (immediate) arguments and checks {!enabled} before
    allocating the record, so an attached-but-disabled log costs one load
    and one branch per event — no allocation, measured under 2% of
    end-to-end throughput at n=64 by the [bench] overhead section.

    Storage grows by doubling up to [cap] (default 2^20 records); past
    that the ring overwrites the {e oldest} records and counts them in
    {!dropped}, so a runaway run degrades into a bounded recent-history
    window instead of unbounded memory. *)

type t

val create : ?cap:int -> ?enabled:bool -> ?synchronized:bool -> unit -> t
(** [enabled] defaults to [true] (an attached log is normally wanted); pass
    [~enabled:false] to pre-wire telemetry that a config flag turns on
    later. [cap] must be positive. [synchronized] (default [false]) guards
    every push with a mutex so the log may be shared by stacks running on
    different engine domains; cross-pid record order then depends on the
    scheduler, but the record set and all per-pid subsequences remain
    deterministic. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit

val synchronized : t -> bool
(** [true] when created with [~synchronized:true] (safe to share across
    [Engine.Parallel] domains). *)

(** {2 Emitters} — one per event kind, scalar arguments only. *)

val span_send : t -> at:Sim_time.t -> uid:int -> pid:int -> bytes:int -> unit
val span_recv : t -> at:Sim_time.t -> uid:int -> pid:int -> unit
val span_queued : t -> at:Sim_time.t -> uid:int -> pid:int -> unit
val span_delivered : t -> at:Sim_time.t -> uid:int -> pid:int -> unit
val span_stable : t -> at:Sim_time.t -> uid:int -> pid:int -> unit
val flush_start : t -> at:Sim_time.t -> pid:int -> view_id:int -> unit
val flush_end : t -> at:Sim_time.t -> pid:int -> view_id:int -> unit

val retransmit :
  t -> at:Sim_time.t -> pid:int -> dst:int -> seq:int -> attempt:int -> unit

val gauge : t -> at:Sim_time.t -> pid:int -> Event.gauge -> int -> unit

val hop_send :
  t -> at:Sim_time.t -> uid:int -> pid:int -> dst:int -> Event.hop_kind -> unit

(** {2 Reading} *)

val length : t -> int
(** Records currently held (after any overwriting). *)

val dropped : t -> int
(** Oldest records overwritten because the ring hit [cap]. *)

val iter : t -> (Event.record -> unit) -> unit
(** In emission (chronological) order, oldest surviving record first. *)

val fold : t -> init:'acc -> f:('acc -> Event.record -> 'acc) -> 'acc
