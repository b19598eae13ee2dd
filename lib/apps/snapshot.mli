(** Global predicate evaluation / consistent cuts (Section 4.2).

    A money-conservation workload: processes exchange transfers; the global
    invariant is that balances plus in-flight money sum to the initial
    total. A consistent snapshot must report exactly that sum.

    [`Catocs_cut]: all transfer traffic is totally ordered multicast; a
    snapshot is just another multicast, and the delivery point is a
    consistent cut. The cut is trivial to take — but {e every} transfer
    pays full-group multicast and ordering cost, all the time ("it would be
    hard to justify the cost of using CATOCS on every communication just to
    detect stable properties").

    [`Chandy_lamport]: transfers are plain point-to-point messages; a
    snapshot floods markers over FIFO channels and records channel contents
    (Elnozahy-style periodic consistent snapshots work the same way). Cost
    is paid only when a snapshot runs. *)

type mode = Catocs_cut | Chandy_lamport

type result = {
  mode : mode;
  transfers_completed : int;
  snapshot_sum : int;  (** recorded balances + recorded channel contents *)
  expected_sum : int;
  snapshot_consistent : bool;
  snapshot_messages : int;  (** messages attributable to taking the cut *)
  total_messages : int;
  ordering_header_bytes : int;  (** CATOCS mode: headers paid on all traffic *)
}

val run : mode -> result

val mode_name : mode -> string
