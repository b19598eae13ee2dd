(** Recorded executions: the analyzer's input.

    An execution is the application-level history of one run — multicast
    sends with their recorded potential-causality contexts (the
    [Oracle.send_info] view: everything the sender had delivered or sent
    beforehand), per-process delivery sequences, external events (database
    writes, physical-world observations, out-of-band point-to-point traffic)
    and {e channel edges}: ordering constraints the application knows about
    that travel outside the communication substrate. Channel edges are what
    the hidden-channel detector audits: each one is checked against the
    transport-level happened-before relation.

    Executions come from three producers: {!Recorder} (live instrumentation
    hooks in apps and experiments, and hand-built executions in tests),
    [Oracle.to_exec] in [lib/check] (checker runs) and {!of_log} (telemetry
    logs). Each assigns every send a fresh uid. An execution records no view
    installs, so {!Delivery_judge.of_exec} judges it without join times.
    The checker does not build one to judge its own runs: it feeds the
    judge from its member logs directly. *)

type ordering_discipline = Fifo_order | Causal_order | Total_order

(** A node of the happened-before DAG, identified by its role. *)
type node =
  | Send_ev of int  (** multicast send of the uid *)
  | Deliver_ev of int * int  (** delivery: process id, uid *)
  | Ext_ev of int  (** external event id *)

type send = {
  uid : int;
  sender : int;
  sender_seq : int;  (** per-sender send counter, 0-based *)
  sent_at : Sim_time.t;
  send_pseq : int;  (** program-order index within the sender's events *)
  context : int list;
      (** potential causality: uids the sender had delivered or sent *)
  semantic : int list option;
      (** application-declared semantic dependencies; [None] = undeclared
          (the analyzer quantifies false causality only when declared) *)
  label : string;
      (** what {!render_diagram} calls the message; [u<uid>] unless the
          recorder was given one *)
}

type delivery = {
  d_pid : int;
  d_uid : int;
  d_at : Sim_time.t;
  d_pseq : int;
}

type ext_event = {
  ext_id : int;
  ext_pid : int;
  ext_at : Sim_time.t;
  ext_label : string;
  ext_pseq : int;
}

type channel_edge = {
  ch_src : node;
  ch_dst : node;
  ch_label : string;  (** what carried the constraint, e.g. "shared database" *)
}

type t = {
  exec_label : string;  (** source description, e.g. ["cbcast seed 12"] *)
  ordering : ordering_discipline option;
  processes : (int * string) list;  (** pid, display name *)
  sends : send list;  (** chronological *)
  deliveries : delivery list;  (** chronological *)
  externals : ext_event list;
  channel_edges : channel_edge list;
}

val process_name : t -> int -> string
val find_send : t -> int -> send option

(** Imperative builder used by instrumentation hooks. Processes are
    registered implicitly on first use (with a [p<pid>] placeholder name)
    or explicitly via {!Recorder.add_process}; per-process program order and
    potential-causality contexts are tracked automatically. *)
module Recorder : sig
  type exec := t
  type t

  val create :
    ?ordering:ordering_discipline -> label:string -> unit -> t

  val add_process : t -> pid:int -> name:string -> unit

  val note_send :
    t ->
    ?semantic:int list ->
    ?label:string ->
    sender:int ->
    at:Sim_time.t ->
    unit ->
    int
  (** Returns the fresh uid. [semantic] declares the message's true
      application-level dependencies ([Some []] = independent of everything
      but its own sender's stream). [label] names the message in
      {!render_diagram} (default [u<uid>]). *)

  val note_delivery : t -> pid:int -> uid:int -> at:Sim_time.t -> unit

  val note_external : t -> pid:int -> at:Sim_time.t -> label:string -> unit
  (** Record an external event in [pid]'s program order (a database write,
      a physical observation, an out-of-band receive). *)

  val note_order_requirement :
    t -> before:int -> after:int -> via:string -> unit
  (** Channel edge between two multicast sends: the application requires
      [before]'s multicast to be applied before [after]'s. *)

  val exec : t -> exec
  (** Snapshot the recording (the recorder remains usable). *)
end

val of_log :
  ?label:string ->
  ?ordering:ordering_discipline ->
  ?names:(int * string) list ->
  Repro_obs.Log.t ->
  t
(** Ingest a structured telemetry log ([lib/obs]): [Span_send] records
    become sends (the log's wire message ids are re-mapped to dense
    recorder uids) and [Span_delivered] records become deliveries. A
    delivery whose send is not in the log — e.g. overwritten after the
    ring filled — raises [Invalid_argument]. [names] labels processes as
    in {!Recorder.add_process}. Intermediate lifecycle records (recv,
    queued, stable), flush markers, retransmissions and gauges carry no
    happened-before information and are skipped. *)

val render_diagram : t -> string
(** The execution as an ASCII event diagram: a time column, then one
    column per {!processes} entry, time advancing downwards. A column is
    24 characters wide, or as wide as its widest cell (its process name
    included), so no cell is cut. Each send, delivery and external event
    is one row, in (time, pid, program order) order: [send <label>],
    [dlvr <label>] (the delivered send's label), or the external event's
    [ext_label]. *)
