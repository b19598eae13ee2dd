(** Randomised fault plans for the schedule-exploration checker.

    A plan is pure data sampled once from a single integer seed: a workload
    of root multicasts plus a time-sorted list of fault actions to apply to
    {!Net}/{!Engine} while the protocol runs. Because the plan is explicit
    data (no randomness is consumed while the run executes the plan), a
    failing plan can be replayed exactly and shrunk by re-running with
    subsets of its fault list. *)

type fault =
  | Drop_burst of { at : Sim_time.t; until : Sim_time.t; probability : float }
      (** raise the network drop probability for a window, then restore 0 *)
  | Dup_burst of { at : Sim_time.t; until : Sim_time.t; probability : float }
      (** raise the duplication probability for a window, then restore 0 *)
  | Partition of { at : Sim_time.t; heal_at : Sim_time.t; side : int list }
      (** [side] lists initial-member {e indexes} cut off from the rest *)
  | Crash of { at : Sim_time.t; victim : int }
  | Partial_multicast of
      { at : Sim_time.t; sender : int; recipients : int list;
        crash_after : Sim_time.t }
      (** a multicast whose network sends reach only [recipients], with the
          sender crashing [crash_after] later — the paper's Section 2
          mid-multicast crash, exercising atomic (all-or-none) delivery *)
  | Join of { at : Sim_time.t }
      (** a fresh process joins through the first healthy initial member *)

type t = {
  n_members : int;  (** initial group size *)
  horizon : Sim_time.t;  (** end of the active phase; quiescence follows *)
  sends : (Sim_time.t * int) list;  (** root multicasts: (time, member index) *)
  faults : fault list;  (** sorted by activation time *)
}

type profile = {
  members : int;
  root_sends : int;
  duration : Sim_time.t;
  max_faults : int;
  allow_crashes : bool;
  allow_partitions : bool;
  allow_loss : bool;
  allow_joins : bool;
}

val default_profile : profile
(** 4 members, 12 root sends over 400ms, up to 6 faults, everything
    enabled. *)

val generate : seed:int -> profile -> t
(** Deterministic: equal seeds and profiles yield equal plans. *)

val with_faults : t -> fault list -> t
(** Same workload, different fault list — the shrinking primitive. *)

val pp : Format.formatter -> t -> unit
