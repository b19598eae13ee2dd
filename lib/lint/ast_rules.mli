(** The per-file AST rule families: determinism (wall-clock reads, the
    ambient PRNG, hash-order leaks, polymorphic comparison on mutable
    state, [Obj.magic]) and aliasing (the module-level shared-mutable
    inventory and structural equality on clock values).

    Suppression: [[@repro.lint.allow "rule-id"]] on an expression or value
    binding, or [[@@@repro.lint.allow ...]] floating (rest of the file); an
    empty payload allows every rule. Committed exceptions belong in the
    baseline instead. *)

val scan :
  ?exempt_determinism:bool -> ?parallel_scope:bool -> Src.t -> Rule.t list
(** All per-file findings, in {!Rule.compare} order. [exempt_determinism]
    (used for [lib/sim], which owns the clock and the PRNG) skips the
    determinism family but keeps the aliasing inventory. [parallel_scope]
    (also [lib/sim]: the files the parallel engine's worker domains
    execute) escalates that inventory — every non-[Atomic] module-level
    ref or hash table additionally raises a [domain-unready] error. A
    file that fails to parse yields a single [parse-error] finding. *)
