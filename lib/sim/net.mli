(** Network model: per-message latency, loss, duplication and partitions.

    The model is deliberately link-symmetric and stateless per message; all
    protocol-visible behaviour (reordering, loss, partition) emerges from the
    sampled delays and drops. *)

type latency =
  | Fixed of Sim_time.t
  | Uniform of Sim_time.t * Sim_time.t
      (** inclusive bounds *)
  | Exponential of { mean_us : float; floor : Sim_time.t }
      (** shifted exponential: [floor + Exp(mean_us)] *)

type t

val create :
  ?latency:latency ->
  ?drop_probability:float ->
  ?detection_delay:Sim_time.t ->
  ?processing_time:Sim_time.t ->
  unit ->
  t
(** Defaults: [Uniform (1ms, 5ms)] latency, no loss, no duplication, 50ms
    failure-detection delay, zero processing time.

    [processing_time] is the receiver-side cost of one message: deliveries
    to a process are serialised and each occupies it for that long, so a
    process receiving faster than it can process builds a queue — delivery
    latency then grows with offered load (the Section 5 premise that
    system-wide propagation time is non-decreasing in system size). *)

val sample_delay : t -> Rng.t -> Sim_time.t
(** Draw one delivery delay from the latency model. *)

val min_latency : t -> Sim_time.t
(** Tight lower bound on {!sample_delay}: no sampled delay is ever smaller.
    The parallel engine uses it as conservative lookahead — events less than
    [min_latency] apart on different processes cannot affect each other — so
    it must be positive for parallel runs (checked at each [Engine.run]). *)

val drops : t -> Rng.t -> bool
val duplicates : t -> Rng.t -> bool
val detection_delay : t -> Sim_time.t
val processing_time : t -> Sim_time.t

val set_drop_probability : t -> float -> unit
val set_duplicate_probability : t -> float -> unit

val partition : t -> int list -> int list -> unit
(** [partition t side_a side_b] blocks all traffic between the two sides (in
    both directions) until [heal]. *)

val heal : t -> unit
val blocked : t -> src:int -> dst:int -> bool
