(** Deterministic discrete-event process engine.

    An engine hosts a set of simulated processes exchanging messages of a
    single type ['msg] (protocol stacks define a wire variant and instantiate
    the engine at it). Events live on {e lanes}: a lane is an event queue
    with its own clock, rng stream and message counters, so runs are
    reproducible given the seed. Every entry carries a key (source lane,
    source seq): the lane that pushed it — a packet's sender, the control
    lane for setup and for ownerless timers' and failure observers' actions
    — and that lane's emission counter, bumped at every push it originates.
    A queue runs its events in (time, key) order. Keys are unique, so the
    pop order depends only on the entries a queue holds, never on the order
    they were pushed in. The queue is a binary heap over slot arrays: the
    (time, key) pairs in int arrays, and per slot a packet's envelope or a
    timer's action and owner pid. A packet allocates only its 6-word
    {!envelope}, also when it crosses lanes; a timer allocates nothing
    beyond the caller's action and [Some owner], so an {!every} tick
    allocates nothing. The two execution strategies (see {!impl}) differ
    only in how processes map onto lanes and in their run loops:

    - [Sequential] — one lane shared by every process, drawing from the
      engine's own rng stream ({!rng}): every key is a control-lane key,
      the whole run is one (time, seq) order.
    - [Parallel {domains}] — a lane per process, each with an rng stream
      split off the seed in pid order, run by conservative parallel
      discrete-event execution on OCaml domains. Lanes advance concurrently
      through epoch windows of width [Net.min_latency] — the lookahead: a
      message sent inside a window arrives, at the earliest, in the next
      one. A worker's push to another lane waits in its lane's outbox, and
      a barrier between epochs moves each outbox entry into its target's
      queue, key unchanged. Delivery schedules are therefore a function of
      the seed alone: the same seed yields identical runs for every
      [domains] value, including [domains = 1]. Because the streams differ,
      [Sequential] and [Parallel] schedules of one seed are each
      deterministic but not comparable message-for-message.

    Parallel restrictions (checked at {!run}): positive [Net.min_latency]
    and zero [Net.processing_time] (the receiver-busy queue mutates
    receiver state at send time); {!spawn}, {!crash} and {!recover} only
    from setup or control-lane actions (timers with no [owner], failure
    observers), not from process handlers. *)

type pid = int

type impl = Sequential | Parallel of { domains : int }

type 'msg envelope = {
  src : pid;
  dst : pid;
  sent_at : Sim_time.t;
  recv_at : Sim_time.t;
  payload : 'msg;
}

type 'msg t

val create :
  ?impl:impl ->
  ?seed:int64 ->
  ?net:Net.t ->
  unit ->
  'msg t
(** [impl] selects the execution strategy (default [Sequential]). Raises
    [Invalid_argument] if [Parallel] is given fewer than 1 domain. *)

val impl : 'msg t -> impl

val rng : 'msg t -> Rng.t

val now : 'msg t -> Sim_time.t
(** The current simulated time. Under [Parallel], the clock of the lane the
    caller is executing on (lanes within one epoch window advance
    independently); outside lane processing, the last barrier time. *)

val spawn : 'msg t -> name:string -> (pid -> 'msg envelope -> unit) -> pid
(** [spawn t ~name handler] registers a process; [handler self env] is
    invoked on each delivered message. Raises [Invalid_argument] past
    2{^22} - 1 processes, the most a key's lane part holds. *)

val set_handler : 'msg t -> pid -> (pid -> 'msg envelope -> unit) -> unit

val handler : 'msg t -> pid -> pid -> 'msg envelope -> unit
(** The handler currently installed for a process. A test probe wraps it
    with {!set_handler} to see every envelope the process receives. *)

val name : 'msg t -> pid -> string

val send : 'msg t -> src:pid -> dst:pid -> 'msg -> unit
(** Subject to the network model: sampled delay, loss, duplication,
    partitions. Messages to or from crashed processes are dropped. A message
    sent to self is delivered after the sampled delay like any other. *)

val at : 'msg t -> ?owner:pid -> Sim_time.t -> (unit -> unit) -> unit
(** Absolute-time timer. If [owner] is crashed when the timer fires, the
    callback is skipped. *)

val after : 'msg t -> ?owner:pid -> Sim_time.t -> (unit -> unit) -> unit

val every :
  'msg t -> ?owner:pid -> ?start:Sim_time.t -> period:Sim_time.t ->
  (unit -> unit) -> unit -> unit
(** [every t ~period f] schedules [f] periodically; the returned thunk
    cancels the series. *)

val crash : 'msg t -> pid -> unit
(** Marks the process dead: in-flight messages to it are discarded on
    arrival, its timers are suppressed, and failure observers are notified
    after the network's detection delay. Crashing a dead process is a
    no-op. *)

val recover : 'msg t -> pid -> unit
val is_alive : 'msg t -> pid -> bool

val on_failure : 'msg t -> (pid -> unit) -> unit
(** Register a failure observer; called once per crash, [detection_delay]
    after the crash instant. *)

val run : ?until:Sim_time.t -> 'msg t -> unit
(** Drain the event queue. [until] stops the clock at the given time
    (remaining events stay queued); a call that processes 50 million
    events fails as a runaway. Under [Parallel], validates the
    restrictions listed above, spins up [domains - 1] worker domains for
    the duration of the call, and advances epoch-by-epoch; empty windows
    are skipped, and [until] cuts the final window short. *)

val messages_sent : 'msg t -> int
val messages_delivered : 'msg t -> int
val messages_dropped : 'msg t -> int
