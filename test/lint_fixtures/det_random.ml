(* Fixture: the ambient-random rule must convict the stdlib global PRNG. *)
let roll () = Random.int 6
let qualified () = Stdlib.Random.float 1.0

(* Inputs that must not fire: the name inside a comment (Random.self_init),
   inside a string literal, and a module whose name merely ends in Random. *)
let label = "Random.self_init"
let own () = XRandom.self_init ()
