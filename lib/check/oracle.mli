(** Invariant oracles over recorded delivery logs.

    The checker's runner feeds every send, delivery and view install into an
    oracle; after the run reaches quiescence, {!check} replays the per-member
    logs against the guarantees the configured ordering mode claims:

    - at-most-once delivery (no duplicates),
    - view agreement (same view id implies same membership),
    - per-sender FIFO order,
    - causal order against each message's recorded send context (CBCAST and
      the total orders),
    - total-order agreement on every pairwise common delivered subset
      (ABCAST / Lamport),
    - virtual synchrony (members moving together between views delivered the
      same set in the old view),
    - atomic all-or-none delivery among survivors sharing a final view,
    - self-delivery liveness for survivors,
    - serializability of a derived register history through
      {!Repro_txn.History} (total orders only).

    Causality is judged against the {e recorded} potential-causality
    relation — everything the sender had delivered or sent when it issued the
    message — not against the protocol's own vector clocks, so a broken
    delivery condition in the stack cannot fool the oracle. At-most-once
    and causal order are judged by {!Repro_analyze.Delivery_judge}, the
    same code the offline sanitizer calls; the oracle passes each member's
    join time, so a predecessor it never delivered convicts it unless it
    joined after that predecessor was sent. *)

type send_info = {
  uid : int;
  sender : Engine.pid;
  sender_seq : int;  (** per-sender send counter, 0-based *)
  sent_at : Sim_time.t;
  depth : int;  (** 0 for root sends, parent depth + 1 for reactions *)
  partial : bool;  (** injected via [inject_partial_multicast] *)
  context : int list;  (** uids delivered or sent by the sender beforehand *)
}

type t

type violation = {
  oracle : string;  (** which invariant, e.g. ["causal-order"] *)
  member : string;
  detail : string;
  uids : int list;  (** message uids involved, for the trace printer *)
}

val create : ?sharded:bool -> unit -> t
(** [sharded] (default false) prepares the oracle for parallel-engine runs:
    every during-run mutation touches only the acting member's own journal —
    uids are allocated per-sender (send counter and reaction depth packed
    into the integer, so they are independent of cross-member interleaving)
    and the shared send index is built lazily once {!check}, {!to_exec} or
    {!pp_trace} is first called. Members must still be registered from
    single-threaded contexts (setup or the engine's control lane).
    Non-sharded allocation (dense uids in global send order) is unchanged. *)

val register_member :
  t -> pid:Engine.pid -> name:string -> view:(int * Engine.pid list) option -> unit
(** Initial members pass [view:(Some (0, pids))] — an implicit install at
    time zero; joiners pass [None] and get their first install when the
    protocol delivers it. *)

val note_send :
  t -> sender:Engine.pid -> at:Sim_time.t -> depth:int -> partial:bool -> int
(** Record a multicast about to be issued; returns its uid (the payload). *)

val note_delivery : t -> pid:Engine.pid -> uid:int -> at:Sim_time.t -> unit
val note_install :
  t -> pid:Engine.pid -> view_id:int -> members:Engine.pid list -> at:Sim_time.t -> unit

val send_depth : t -> int -> int
val has_install : t -> Engine.pid -> bool
val member_pids : t -> Engine.pid list
val name_of : t -> Engine.pid -> string
val send_count : t -> int
val delivery_count : t -> int

val check :
  t -> ordering:Repro_catocs.Config.ordering -> survivors:Engine.pid list ->
  violation option
(** Run the oracle suite for [ordering]; [survivors] are the members still
    alive, un-ejected and installed at quiescence (the only ones the
    convergence / self-delivery / history checks may hold to account). *)

val pp_trace : Format.formatter -> t -> uids:int list -> unit
(** Print the send and per-member delivery fate of the listed uids (capped
    at 8) — the counterexample trace. *)

val to_exec :
  t ->
  ordering:Repro_catocs.Config.ordering ->
  label:string ->
  Repro_analyze.Exec.t
(** Export the recorded run for the offline analyzer: per-member program
    orders merge each member's sends (with their recorded potential-causality
    contexts) and deliveries; semantic dependencies are left undeclared
    (checker workloads have no application semantics to declare). *)
