(** The one judge of at-most-once and causal delivery, called by both the
    checker's oracles ([Oracle.check] in [lib/check]) and the sanitizer
    ({!Analyzer.analyze}):

    - {e at-most-once}: no member delivers a uid twice;
    - {e causal order}: every uid in a delivered message's recorded context
      (everything its sender had delivered or sent beforehand,
      {!Exec.send.context}) was delivered earlier at that member.

    It reads one member at a time: the uids it delivered, in order, plus
    lookups of a uid's context and send time. A predecessor the member
    never delivered convicts it unless it joined after that predecessor was
    sent; without a join time (an {!Exec.t} records none) the judge looks
    through such a predecessor to its own context instead. Either way a
    member that delivered a message before one in its happened-before past
    is convicted. *)

type member
(** One member's delivery log, indexed in one pass. *)

val index : int list -> member
(** The member's delivered uids, in delivery order. *)

val position : member -> int -> int option
(** Position (0-based) of the uid's first delivery. *)

val duplicates : member -> (int * int) list
(** [(uid, times delivered)] per uid delivered more than once, in the order
    of their second deliveries. *)

type inversion = {
  uid : int;  (** the delivered message *)
  pos : int;  (** its first-delivery position *)
  pred : int;  (** a message of its causal past not delivered before it *)
  pred_pos : int option;  (** [None]: never delivered *)
}

val causal_order :
  member ->
  joined_at:Sim_time.t option ->
  context:(int -> int list) ->
  sent_at:(int -> Sim_time.t) ->
  inversion list
(** Every violation, by delivery order of [uid] and then context order; a
    repeat delivery is judged once. A never-delivered context entry [c]:
    - under [~joined_at:(Some t)], convicts ([pred = c], [pred_pos = None])
      when [t] is before [sent_at c];
    - under [~joined_at:None], is looked through: the latest message the
      member delivered in [c]'s causal past (reached through
      never-delivered messages only) convicts as [pred] if it came after
      [uid]. *)

type exec_view = {
  members : (int * member) list;
      (** pid and log, in order of each process's first delivery (the
          sanitizer's reports follow this order) *)
  send : int -> Exec.send option;  (** the uid's send *)
  context : int -> int list;  (** the uid's send's context, or [[]] *)
  sent_at : int -> Sim_time.t;  (** raises [Not_found] for a uid never sent *)
}

val of_exec : Exec.t -> exec_view
