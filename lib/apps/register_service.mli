(** A replicated register service, used to check {e client-observable}
    consistency with the {!Repro_txn.History} linearizability checker.

    Writes propagate by causal multicast and are acknowledged after
    [write_safety] remote acks (the Deceit discipline of Section 4.4).
    Reads come in two flavours:

    [`Read_any]: a read is served from whatever value a {e random} replica
    currently holds — the "read-any/write-all" pattern. A replica that has
    not yet delivered an acknowledged write serves stale data, so client
    histories are frequently {e not linearizable}.

    [`Read_primary]: reads are served by the key's writing server, which
    applied its own multicast synchronously — histories stay linearizable.

    The paper's point, observed end to end: message-level ordering
    guarantees do not translate into the state-level consistency a client
    can rely on; where the read is allowed to land decides everything. *)

type read_mode = Read_any | Read_primary

type config = { seed : int64; read_mode : read_mode }

val default_config : config

type result = {
  read_mode : read_mode;
  operations : int;
  linearizable : bool;
  violation : string option;
  stale_reads : int;
      (** heuristic: reads returning a value smaller than the largest write
          completed before the read began. Overlapping writes applied in
          multicast order can trip it without breaking linearizability;
          [linearizable] is the rigorous verdict. *)
}

val run : config -> result

val mode_name : read_mode -> string
