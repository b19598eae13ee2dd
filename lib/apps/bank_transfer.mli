(** Limitation 2 — "can't say together" (Section 3).

    A transfer is a {e group} of operations: debit one account, credit
    another, conditional on sufficient funds. CATOCS orders individual
    messages; it cannot group them.

    [`Catocs_ops]: replicas apply Debit/Credit multicasts (totally ordered)
    independently. Total order makes every replica take the {e same}
    decision on each message — but the decisions are per message: when a
    stale funds check lets a debit through to an overdrawn account, the
    replica rejects the debit yet has no way to reject the {e matching
    credit}, so money is created; between the two deliveries an observer
    sees money missing. This is the paper's point that rejecting a message
    at the state level "is equivalent to reordering the message delivery"
    and needs transactional machinery anyway.

    [`Transactional]: the same workload as one transaction per transfer
    (both operations or neither, checked under the lock). *)

type mode = Catocs_ops | Transactional

type result = {
  mode : mode;
  transfers_attempted : int;
  transfers_applied : int;  (** both halves took effect *)
  split_transfers : int;
      (** one half applied, the other rejected — money created/destroyed
          (CATOCS only; must be 0 transactionally) *)
  conservation_violations : int;
      (** observer samples (taken at every delivery/commit) where the total
          money supply was wrong *)
  final_sum_error : int;  (** |final total - initial total| *)
  overdrafts : int;  (** accounts ending negative *)
  replicas_agree : bool;
  aborted_transfers : int;  (** transactional mode: cleanly refused *)
}

val run : mode -> result

val mode_name : mode -> string
