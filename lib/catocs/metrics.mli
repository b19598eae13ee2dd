(** Per-member protocol metrics.

    These quantify exactly what Sections 3.4 and 5 of the paper argue about:
    delivery delay (including false-causality delay), buffering for
    unstable messages, per-message ordering-header overhead, control traffic,
    and send suppression during view changes. The send-to-stability lag is
    kept only in the stack registry's [stability/stability_lag_us]
    histogram (on when {!Config.metrics} is set). *)

type t = {
  mutable multicasts_sent : int;
  mutable data_received : int;
  mutable delivered : int;
  delivery_delay_us : Stats.Summary.t;
      (** receive -> deliver: time spent blocked in ordering queues *)
  transit_us : Stats.Summary.t;  (** send -> deliver, end to end *)
  mutable delayed_messages : int;
      (** messages that had to wait in an ordering queue *)
  mutable peak_unstable_bytes : int;
  mutable peak_unstable_count : int;
      (** the largest unstable buffer any one view's stability tracker
          held; a view install starts the next tracker empty *)
  mutable control_messages : int;  (** gossip, sequencer orders, flush *)
  mutable flush_messages : int;
      (** the view-change subset of control messages *)
  mutable header_bytes : int;  (** cumulative ordering headers sent *)
  mutable dropped_at_view_change : int;
      (** undeliverable messages discarded on view install: the atomicity /
          durability gap of Section 2 *)
  mutable suppressed_us : int;  (** total send-suppression time in flushes *)
  mutable view_changes : int;
}

val create : unit -> t

val raise_unstable_peak : t -> count:int -> bytes:int -> unit
(** Lift the two peaks to a tracker's current occupancy. *)
