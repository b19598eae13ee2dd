(** E13 — Section 3.4: per-message ordering overhead.

    CATOCS "imposes overhead on every message transmission and reception":
    a vector timestamp per message (4 bytes per group member) plus control
    traffic (stability gossip; sequencer orders). We tabulate bytes and
    control messages per data message as the group grows, for each
    ordering discipline. *)

type point = {
  ordering : Repro_catocs.Config.ordering;
  group_size : int;
  header_bytes_per_msg : float;
  control_msgs_per_data_msg : float;
  mean_delivery_delay_us : float;
}

val sweep : ?sizes:int list -> ?seed:int64 -> unit -> point list

val run : unit -> Table.t
