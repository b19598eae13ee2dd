(** The drilling-cell example (Appendix 9.1).

    A batch of holes must each be drilled {e exactly once} by a cell of
    driller controllers, surviving driller failures; holes a failed driller
    may have started go on a check list.

    [`Catocs_scheduling] is Birman's design: the job is ABCAST to the
    driller group and every driller derives its own assignment from the
    shared (virtually synchronous) state; every completion is multicast to
    the whole group, and a failure triggers a view change after which the
    survivors deterministically re-derive a consistent new schedule.

    [`Central_controller] is the paper's alternative: a central controller
    assigns holes and collects completions, mirroring its state to one
    backup; communication is {e linear} in the number of holes, "not
    quadratic as claimed for Birman's solution", at the price of a
    synchronous reassignment on failure. *)

type mode = Catocs_scheduling | Central_controller

type config = {
  crash : (int * Sim_time.t) option;  (** driller index, time *)
  mode : mode;
}

val default_config : config

type result = {
  mode : mode;
  holes : int;
  drilled_once : int;  (** holes completed by exactly one driller *)
  double_drilled : int;  (** safety violations (must be 0) *)
  check_list : int;  (** holes needing manual inspection after a failure *)
  messages_total : int;
  messages_per_hole : float;
  completion_time_ms : float;
}

val run : config -> result

val mode_name : mode -> string
