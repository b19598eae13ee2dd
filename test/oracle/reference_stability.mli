(** The full-rescan stability tracker: one hashtable of buffered messages,
    rescanned against the matrix minima on every observation —
    O(buffer x group) per release pass. Correct and obviously so, kept as
    the differential-testing baseline for {!Repro_catocs.Stability}: on any
    delivery-legal call sequence both release exactly the same
    [(msg_id, release-time)] sets and report the same metrics. It registers
    the same two registry cells, but a rescan tracks no minima advances, so
    [stability/minima_advances] stays at zero. *)

type 'a data = 'a Repro_catocs.Wire.data

type 'a t

val create :
  ?clock:Group_clock.impl ->
  ?bytes_of:('a data -> int) ->
  ?obs:Repro_obs.Log.t * int ->
  ?registry:Repro_obs.Registry.t ->
  group_size:int ->
  metrics:Repro_catocs.Metrics.t ->
  graph:Causality.t option ->
  unit ->
  'a t

val note_sent_or_delivered : 'a t -> 'a data -> unit
val note_delivered_diag : 'a t -> 'a data -> unit
val observe_vc :
  'a t -> live:bool -> rank:int -> now:Sim_time.t -> Vector_clock.t -> unit

val self_observe_cell :
  'a t -> rank:int -> col:int -> seq:int -> now:Sim_time.t -> unit

val unstable : 'a t -> 'a data list
val unstable_count : 'a t -> int
val unstable_bytes : 'a t -> int
val matrix : 'a t -> Group_clock.t
