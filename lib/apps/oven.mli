(** Real-time monitoring (Section 4.6): "sufficient consistency".

    A factory-oven sensor publishes periodic temperature readings; the
    monitor's correctness is how closely its stored value tracks the true
    (simulated) oven temperature.

    [`Catocs_group]: the sensor shares a causal group with chatty
    controller traffic. Every reading is vector-timestamped and may be held
    in the delay queue behind causally prior control messages ("update
    messages delayed by CATOCS reduce consistency with the monitored
    system"); with loss, reliable retransmission stalls the whole causal
    stream.

    [`Timestamped_freshest]: readings go point-to-point with a real-time
    timestamp; the monitor keeps the freshest value and simply drops stale
    or lost ones — the paper's recipe of periodic updates, priority to the
    most recent, and tolerance of gaps. *)

type mode = Catocs_group | Timestamped_freshest

type config = { drop_probability : float; mode : mode }

type result = {
  mode : mode;
  readings_sent : int;
  readings_applied : int;
  mean_tracking_error : float;  (** mean |stored - true| sampled every ms *)
  max_tracking_error : float;
  mean_staleness_ms : float;  (** age of the stored reading when sampled *)
  messages_total : int;
}

val run : config -> result

val true_temperature : Sim_time.t -> float
(** The simulated oven profile (exposed for tests). *)

val mode_name : mode -> string
