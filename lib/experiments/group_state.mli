(** Section 4.1, the Netnews scale objection: "to match actual causality to
    the incidental ordering of CATOCS, a new causal group would have to be
    created for each inquiry. The number of resulting causal groups would
    be enormous... The amount of state maintained by the communication
    system is proportional to the number of causal groups."

    We run the inquiry/response workload both ways: one causal group
    carrying everything (over-constrained ordering, but one set of state),
    and one causal group {e per inquiry} (the ordering-precise layout the
    paper analyses). Per-process protocol state and control traffic grow
    linearly with the number of groups. *)

type point = {
  layout : string;
  group_count : int;
  control_messages : int;  (** gossip across all groups, whole run *)
  comm_state_bytes_per_process : int;
      (** vector clock + stability matrix for every membership *)
  misordered : int;  (** responses delivered before their inquiry *)
  messages : int;
}

val sweep : ?readers:int -> ?inquiries:int list -> ?seed:int64 -> unit -> point list

val run : unit -> Table.t
