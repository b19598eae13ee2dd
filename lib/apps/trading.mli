(** The securities-trading example (Figure 4 / Section 4.1): semantic
    ordering constraints stronger than happens-before.

    An option-pricing service multicasts option price ticks; a
    theoretical-pricing service, on each tick it delivers, computes and
    multicasts a theoretical price derived from it. The required semantic
    constraint — a theoretical price is ordered after the underlying price
    it derives from {e and before all subsequent changes to that price} —
    cannot be expressed in happens-before: the new option price and the old
    theoretical price are concurrent, so neither causal nor total multicast
    prevents a monitor from displaying a "false crossing" (a stale
    theoretical price against a fresh option price).

    The production fix (the paper's own, from their trading floors): every
    computed object carries the id and version of its base object in a
    dependency field; the monitor's order-preserving cache exposes a
    theoretical price only against the matching base version. *)

type config = {
  seed : int64;
  ticks : int;  (** option price updates *)
  latency : Net.latency;
  ordering : Repro_catocs.Config.ordering;
  causal_impl : Repro_catocs.Config.causal_impl;
      (** the false crossing is a semantic gap, not an implementation bug:
          it shows under BSS and PC-broadcast alike *)
}

val default_config : config

type result = {
  ticks : int;
  naive_false_crossings : int;
      (** monitor observations where displayed theo < displayed option while
          the true relation never crosses *)
  dep_cache_false_crossings : int;  (** with dependency fields (expected 0) *)
  naive_stale_pairings : int;
      (** observations pairing a theo price with a newer base than it was
          computed from *)
  mean_display_lag_us : float;
      (** dep-cache cost: delay from theo arrival to exposure *)
}

val run : ?obs:Repro_obs.Log.t -> config -> result
(** [obs] attaches a telemetry log to the group. *)
