(** The Usenet Netnews example (Section 4.1): inquiries and responses.

    Articles are flooded to reader sites without ordering (today's Usenet,
    modelled as FIFO multicast); a response can arrive before the inquiry it
    answers. Three remedies are compared:

    - [`Fifo_naive]: display in arrival order; count responses displayed
      before their inquiry (the misordering CATOCS is supposed to cure),
    - [`Fifo_dep_cache]: the paper's References-header fix — each response
      carries the id of its inquiry; the local news database parks it until
      the inquiry arrives (complexity proportional to articles of interest,
      zero communication-layer cost),
    - [`Causal]: CBCAST across the whole newsgroup — fixes the ordering but
      charges every article a vector-timestamp header and delay-queue cost,
      the Section 4.1 scaling objection. *)

type mode = Fifo_naive | Fifo_dep_cache | Causal

type result = {
  mode : mode;
  articles_delivered : int;
  misordered_displays : int;
      (** responses shown with their inquiry not yet shown *)
  parked_responses : int;  (** dep-cache only: responses held, then shown *)
  mean_inquiry_to_display_us : float;
      (** latency from inquiry post to a response being displayable *)
  header_bytes : int;  (** ordering headers paid on the wire *)
  messages_sent : int;
}

val run : mode -> result

val mode_name : mode -> string
