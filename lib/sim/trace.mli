(** Event traces and ASCII event-diagram rendering.

    The paper presents its anomalies as event diagrams (Figures 1-4); this
    module regenerates them from actual protocol executions: one column per
    process, time advancing downwards. *)

type kind = Send | Recv | Deliver | Mark

type t

val create : unit -> t

val record : t -> Sim_time.t -> pid:int -> kind -> string -> unit

val render_diagram :
  ?exclude_substrings:string list ->
  ?limit:int ->
  t ->
  names:string array ->
  string
(** Render an event diagram with one 24-character column per process
    (indexed by pid).
    Entries whose pid is outside [names] are dropped; entries whose label
    contains one of [exclude_substrings] are filtered (protocol noise such
    as gossip); at most [limit] rows are emitted (default: unlimited).
    Rows follow recording order. *)
