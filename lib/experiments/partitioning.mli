(** Section 5: "Partitioning a large process group into smaller process
    groups does not necessarily reduce this problem unless the smaller
    groups are not causally related."

    The same sender population either forms one big causal group, or is
    split into k subgroups bridged by a relay member (in every subgroup)
    that reacts to traffic in one subgroup by multicasting a digest into
    the next — a semantic causal chain {e across} groups. An observer, also
    in every subgroup, checks whether digests ever arrive before their
    causes:

    - one big group: the chain is inside the group, CBCAST orders it;
    - partitioned: per-group vector clocks know nothing of each other, so
      the cross-group order is violated — or the bridge member must carry
      the buffering of every subgroup it connects, which is the cost the
      partitioning was meant to shed. *)

type point = {
  layout : string;
  groups : int;
  senders : int;
  bridge_peak_unstable_bytes : int;
      (** total across the bridge's group memberships *)
  sender_peak_unstable_bytes : int;  (** worst ordinary member *)
  cross_group_violations : int;
      (** digests delivered before their causes at the observer *)
  digests : int;
  header_bytes : int;
  messages : int;
}

val sweep : ?senders:int -> ?partitions:int -> ?seed:int64 -> unit -> point list

val run : unit -> Table.t
