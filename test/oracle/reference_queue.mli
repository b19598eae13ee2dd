(** The O(pending) list-scan delivery queue: one pending list in arrival
    order, rescanned in full on every take. Correct and obviously so, which
    is what a differential-testing baseline for {!Repro_catocs.Delivery_queue}
    must be: on any interleaving of operations both return the same
    messages in the same order (the oldest deliverable arrival first). It
    honours {!Repro_catocs.Delivery_queue.chaos_disable_causal_check} the
    same way. *)

type 'a pending = 'a Repro_catocs.Delivery_queue.pending

type 'a t

val create : Repro_catocs.Delivery_queue.mode -> 'a t
val add : 'a t -> 'a pending -> unit
val length : 'a t -> int
val take_deliverable : 'a t -> local:Vector_clock.t -> 'a pending option
val drain : 'a t -> 'a pending list
val to_list : 'a t -> 'a pending list
