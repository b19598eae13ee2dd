(** The happened-before reachability check of causal delivery: the
    independent cross-check for {!Repro_analyze.Delivery_judge}.

    Where the judge compares each delivery with its recorded context, this
    asks the DAG: for every process and every pair [u1], [u2] it delivered,
    if [send u1] happened-before [send u2] over transport-visible edges
    ({!Repro_analyze.Hb.reaches} [~transport_only:true]), then [u1] must come
    first. O(d{^ 2}) reachability queries per process; built on the public
    [Hb] API only. *)

val inversions : Repro_analyze.Hb.t -> (int * int * int) list
(** [(pid, u1, u2)]: [pid] delivered [u2] before the causally prior [u1]
    (first deliveries compared), sorted. *)
