(** Write-ahead log: the durability mechanism CATOCS lacks (Section 2's
    "atomic but not durable").

    Appended records survive a simulated crash; {!replay} reconstructs the
    state of all {e committed} transactions, dropping writes of transactions
    without a commit record — exactly the recovery contract of the
    transactional comparators (HARP). *)

type txid = int

type 'v record =
  | Begin of txid
  | Write of { txid : txid; key : string; value : 'v }
  | Commit of txid
  | Abort of txid

type 'v t

val create : unit -> 'v t

val append : 'v t -> 'v record -> unit
val length : 'v t -> int

val replay : 'v t -> 'v Kv_store.t
(** Committed transactions' writes, applied in log order. *)

val truncate : 'v t -> keep:int -> unit
(** Crash-injection helper: lose the tail of the log (models an unsynced
    buffer), keeping the first [keep] records. *)
