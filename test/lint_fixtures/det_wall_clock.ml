(* Fixture: the wall-clock rule must convict an ambient time read. *)
let now () = Unix.gettimeofday ()
let cpu () = Sys.time ()

(* Inputs that must not fire: the name inside a comment (Unix.gettimeofday
   would break replay), inside a string literal, and Sys.times, a longer
   identifier sharing Sys.time's spelling. *)
let label = "Sys.time"
let times () = Sys.times ()
