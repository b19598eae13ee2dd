(** E5 — Section 3.4: false causality delay.

    A group where all traffic is semantically independent (each sender's
    stream means nothing to the others), so {e any} delivery delay imposed
    by the causal order is false causality: the happens-before relation
    couples streams merely because their messages were received. We compare
    the same workload under FIFO (no coupling), causal, and total ordering
    while sweeping network jitter. *)

type point = {
  ordering : Repro_catocs.Config.ordering;
  jitter_max_ms : int;
  mean_queue_wait_us : float;  (** time messages sat in ordering queues *)
  delayed_fraction : float;  (** messages that waited at all *)
  transit_p99_us : float;
      (** 99th percentile of send -> deliver time over every delivery at
          every member *)
  header_bytes_per_msg : float;
}

val sweep :
  ?group_size:int -> ?jitters_ms:int list -> ?seed:int64 -> unit -> point list

val record :
  ?ordering:Repro_catocs.Config.ordering -> unit -> Repro_analyze.Exec.t
(** An instrumented run of the same workload for the causal sanitizer: each
    multicast declares an empty semantic dependency set ([semantic = Some \[\]]
    — the streams are independent by construction), so the analyzer's
    false-causality detector can count exactly how much of the enforced
    context was unnecessary. *)

val run : unit -> Table.t
