(** Simulated synchronized real-time clocks (Section 4.6).

    "The implementation of distributed (real-time) clock synchronization is
    well understood, takes little communication or processing" — we model
    the result: each process reads the true simulated time plus a fixed
    per-process skew bounded by the synchronization accuracy. The paper's
    point is that a sub-millisecond-accurate timestamp totally orders
    events that physically occur tens of milliseconds apart. *)

type t

val create : ?accuracy_us:int -> Rng.t -> t
(** [accuracy_us] bounds each process's skew to [±accuracy_us/2]
    (default 1000, i.e. sub-millisecond accuracy). *)

val read : t -> pid:int -> now:Sim_time.t -> Sim_time.t
(** The clock value process [pid] reads at true time [now]. Deterministic
    per pid. *)

val skew_of : t -> pid:int -> int

(** Timestamped values with freshest-wins merge — the "sufficient
    consistency" recipe for monitoring. *)
module Stamped : sig
  type 'a v = { stamp : Sim_time.t; origin : int; v : 'a }

  val merge : 'a v option -> 'a v -> 'a v
  (** Keep the fresher of the two; origin id breaks exact ties. *)
end
