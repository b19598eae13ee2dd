(** Configuration of a CATOCS process group. *)

type ordering =
  | Fifo  (** per-sender FIFO multicast (FBCAST) — the non-CATOCS baseline *)
  | Causal  (** vector-clock causal multicast (CBCAST) *)
  | Total_sequencer  (** causal + sequencer-assigned total order (ABCAST) *)
  | Total_lamport  (** total order by Lamport timestamps, stability-released *)

type failure_detection =
  | Oracle
      (** the simulator notifies every observer [detection_delay] after a
          crash — the idealised, simultaneous detector *)
  | Heartbeat of { period : Sim_time.t; timeout : Sim_time.t }
      (** each member multicasts heartbeats; a peer silent for [timeout] is
          suspected. Detection is per-observer (staggered), and with
          message loss a {e live} member can be falsely suspected and
          removed — it must re-join (see {!Stack.join}). *)

type transport_mode =
  | Bare  (** raw network: no acks; suitable for lossless configurations *)
  | Fifo_order
      (** per-link sequencing and in-order reassembly without acks or
          retransmission: every (src, dst) pair behaves as a FIFO channel
          under reordering networks, but loss is not repaired. The cheap
          substrate PC-broadcast ({!causal_impl}) needs on lossless
          configurations; use [Reliable] when messages can be dropped. *)
  | Reliable of { rto : Sim_time.t; max_retries : int }
      (** positive ack + retransmission, FIFO reassembly *)

type causal_impl =
  | Vector_causal
      (** BSS causal delivery: O(group) vector timestamps piggybacked on
          every message, receiver-side buffering against the delivery
          condition — the 1993 CATOCS design the paper critiques *)
  | Pc_causal
      (** PC-broadcast (Nédelec et al., SRDS 2018): causal order from FIFO
          overlay links plus forward-on-first-delivery, so each message
          carries O(1) control information regardless of group size. Only
          affects [Causal] ordering; requires FIFO links ([Fifo_order] or
          [Reliable] transport under reordering/lossy networks). *)

type pc_overlay =
  | Pc_full_mesh
      (** every member forwards to every other: 1-hop delivery latency,
          maximal redundancy — the configuration whose delivery behavior is
          differentially pinned against [Vector_causal] *)
  | Pc_tree of { fanout : int }
      (** deterministic [fanout]-ary spanning tree over ranks: each
          broadcast crosses each tree edge once (n-1 transmissions, like a
          direct multicast) at the price of depth-many hops; the
          configuration the large-scale sweeps use *)

type stability_clock =
  | Dense_clock
      (** one materialised [Vector_clock] row per member:
          O(group{^ 2}) words per stability tracker
          ({!Matrix_clock}) — the PR 4 cached-minima default *)
  | Sparse_clock
      (** shared-row interning: rows adopt (by reference) the immutable
          timestamp snapshots that gossip and data messages already carry,
          storing only a diagonal override, so a tracker costs O(group)
          marginal words while reporting byte-identical advances
          ({!Sparse_matrix_clock}) — what lets the scaling sweep reach
          n=4096 without the ~20 GB dense group-clock footprint. The
          sharing, and so the O(group) cost, holds under [Structural]
          only: under [Encoded] each receiver decodes its own BSS data
          stamp, and merges a gossip vector by value because it is the
          codec's reused decode target. *)

type wire_format =
  | Structural
      (** ship OCaml message values through the simulated network directly;
          byte accounting uses the {!Wire.header_bytes} estimates — the
          fast default for ordering/stability experiments *)
  | Encoded
      (** run every multicast through {!Wire_codec}: length-prefixed binary
          frames cross the (simulated) wire and are decoded at the
          receiver, and unstable-byte gauges charge real encoded sizes.
          Applies to every transport mode; a [Reliable] window holds the
          frames and resends them. *)

type t = {
  ordering : ordering;
  gossip_period : Sim_time.t;
      (** period of stability gossip; also drives Lamport-order progress *)
  transport : transport_mode;
  failure_detection : failure_detection;
  piggyback_history : bool;
      (** footnote 4 of Section 3.4: instead of delaying a dependent
          message at the receiver, append the sender's unstable causal
          predecessors to it so the receiver can fill its own gaps — at the
          price of (significantly) larger messages *)
  payload_bytes : int;  (** default accounting size of one payload *)
  track_graph : bool;
      (** maintain the shared active-causal-graph (Section 5 metrics);
          costs memory at large scale *)
  causal_impl : causal_impl;
      (** causal-delivery implementation selector (BSS vs PC-broadcast) *)
  pc_overlay : pc_overlay;
      (** dissemination overlay used when [causal_impl] is [Pc_causal] *)
  stability_clock : stability_clock;
      (** matrix-clock representation used by stability tracking *)
  wire_format : wire_format;
      (** message representation on the simulated wire *)
  metrics : bool;
      (** enable the per-stack {!Repro_obs.Registry} (protocol counters,
          gauges and latency histograms). Off — the default — hands every
          instrumentation point a scrap cell, keeping the hot path inside
          the <2% disabled-observability envelope the bench gates. *)
}

val default : t
(** Causal ordering, 20ms gossip, bare transport, oracle failure detection,
    256-byte payloads, graph tracking on, BSS causal delivery over a full
    mesh. *)

val ordering_name : ordering -> string

val pc_active : t -> bool
(** True when this configuration runs the PC-broadcast causal layer:
    [causal_impl = Pc_causal] and [ordering = Causal]. *)

val with_causal_impl : causal_impl -> t -> t
(** Select the causal implementation, upgrading a [Bare] transport to
    [Fifo_order] when PC-broadcast is chosen — its causality argument needs
    FIFO links, and a [Reliable] transport already provides them. *)
