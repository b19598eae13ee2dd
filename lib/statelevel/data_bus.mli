(** A dependency-preserving data-distribution utility: the paper's positive
    proposal, generalised from Section 4.1 — "Both the Netnews and the
    trading solutions outlined above can be generalized to the notion of an
    order-preserving data cache... General-purpose utilities maintain the
    dependencies among data objects, and applications exploit this
    information in ordering and presenting data."

    Publishers put versioned objects on named subjects, optionally declaring
    the (subject, version) dependencies of computed objects; every
    subscriber holds an order-preserving cache that exposes an object only
    once its dependencies are visible. Transport needs no ordering at all —
    the bus runs over whatever [send] the application supplies (typically
    plain simulator sends), tolerating arbitrary reordering.

    This module is transport-agnostic glue over {!Versioned} (publisher
    versioning) and {!Dep_cache} (subscriber caches). *)

type update = {
  subject : string;
  version : int;
  value : float;
  deps : (string * int) list;  (** (subject, minimum version) pairs *)
}

module Publisher : sig
  type t

  val create : send:(update -> unit) -> t
  (** [send] is invoked once per publish; the application fans it out (one
      message per subscriber, a multicast, a log write — the bus does not
      care). *)

  val publish : t -> subject:string -> ?deps:(string * int) list -> float -> int
  (** Assigns and returns the next version of the subject, then sends. *)

  val version : t -> subject:string -> int
end

module Subscriber : sig
  type t

  val create :
    ?on_expose:(subject:string -> version:int -> float -> unit) -> unit -> t
  (** [on_expose] fires when an object becomes visible (its dependencies
      are satisfied), in dependency-respecting order. *)

  val receive : t -> update -> unit
  (** Feed a (possibly reordered, possibly duplicated) update. *)

  val read : t -> subject:string -> (float * int) option
  (** Newest visible (value, version). *)

  val read_any : t -> subject:string -> (float * int) option
  (** Newest value even if still dependency-incomplete. *)

  val parked : t -> int
end
