(** Repo-level protocol-contract cross-checks (rule family 3).

    Two contracts, both checked over a list of parsed source units whose
    paths are repo-root-relative (so tests can synthesize trees):

    - every [chaos_*] mutation hook defined at module level under [lib/]
      must be referenced by at least one file under [test/] — a hook whose
      fault is never convicted is dead armour;
    - every constructor of [Config]'s dispatch types ([causal_impl],
      [stability_clock]) must appear in each of three families:
      check-runner ([lib/check/] + [bin/check_cli.ml] +
      [test/test_check.ml]), scaling ([lib/experiments/] +
      [test/test_experiments.ml]) and bench ([bench/]). *)

val check : Src.t list -> Rule.t list
