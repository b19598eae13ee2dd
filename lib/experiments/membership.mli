(** E7 — Section 5: group-membership change cost.

    "Membership change protocols also suppress the sending of new messages
    during a significant portion of the protocol": we crash one member of an
    N-member group under steady traffic and measure the flush — how long
    sends were suppressed, the control messages the view change cost
    (difference against an identical crash-free run), and undeliverable
    messages dropped at view installation. *)

type point = {
  group_size : int;
  flush_duration_ms : float;  (** max send-suppression time over members *)
  view_change_control_msgs : int;
      (** messages attributable to the view change *)
  dropped_at_view_change : int;
  post_change_delivery_ok : bool;
      (** a multicast after the change still reaches all survivors *)
}

val sweep : ?sizes:int list -> ?seed:int64 -> unit -> point list

val run : unit -> Table.t
