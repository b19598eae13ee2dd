(** RPC deadlock detection (Appendix 9.2).

    Workers issue RPCs to one another; a deadlock is a waits-for cycle among
    outstanding invocations. Two detectors are compared:

    [`Van_renesse] (the CATOCS design): every RPC invocation and every
    return is {e causally multicast} to a group containing all workers plus
    the monitor; the monitor replays the events into a wait-for graph.
    Cost: two multicasts to the whole group per RPC, on the critical path.

    [`Periodic_waitfor] (the paper's alternative): each worker keeps its
    local wait-for edges augmented with RPC instance identifiers
    (A15 -> B37) and periodically sends them — plain point-to-point, a
    conventional sequence number sufficing — to the monitor, which merges
    them and looks for a cycle. Cost: one small message per worker per
    period, off the critical path, and it handles multi-threaded workers
    for free. *)

type mode = Van_renesse | Periodic_waitfor

type result = {
  mode : mode;
  background_rpcs : int;
  deadlock_detected : bool;
  detection_latency_ms : float;  (** cycle formation -> monitor detection *)
  false_alarms : int;  (** cycles reported that were never real *)
  messages_total : int;
  messages_per_rpc : float;
}

val run : mode -> result

val mode_name : mode -> string
