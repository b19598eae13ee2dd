(** Ablations over the reproduction's design knobs (DESIGN.md).

    {!gossip_period}: stability knowledge spreads by gossip; gossiping less
    often saves control messages but leaves messages unstable — hence
    buffered — longer. This is Section 5's remark that slowing traffic down
    leaves "fewer application messages on which to piggyback acknowledgment
    information".

    {!latency_distribution}: the hidden-channel and semantic-constraint
    anomalies (Figures 2-4) are structural: changing the latency law moves
    the rates but none of them reaches zero under CATOCS, while the
    state-level fixes stay at exactly zero. *)

val gossip_period : unit -> Table.t

type piggyback_point = {
  variant : string;
  drop : float;
  mean_queue_wait_us : float;
  delivered : int;
  expected : int;
  overhead_bytes_per_msg : float;
}

val piggyback_sweep : unit -> piggyback_point list

val piggyback : unit -> Table.t
(** Section 3.4 footnote 4: append unstable causal predecessors to each
    message instead of delaying dependants at receivers. *)

val latency_distribution : unit -> Table.t
