module Delivery_queue = Repro_catocs.Delivery_queue
module Wire = Repro_catocs.Wire

type 'a pending = 'a Delivery_queue.pending

type 'a t = { mode : Delivery_queue.mode; mutable queue : 'a pending list }

let condition_holds mode ~local (pending : 'a pending) =
  let data = pending.Delivery_queue.data in
  let sender = data.Wire.sender_rank in
  let fifo_next () = Wire.seq data = Vector_clock.get local sender + 1 in
  match mode with
  | Delivery_queue.Fifo_gap -> fifo_next ()
  | Delivery_queue.Causal_full ->
    if !Delivery_queue.chaos_disable_causal_check then fifo_next ()
    else Vector_clock.deliverable ~sender ~msg:data.Wire.vt ~local

let create mode = { mode; queue = [] }

let add t pending = t.queue <- t.queue @ [ pending ]

let length t = List.length t.queue

let take_deliverable t ~local =
  let rec split_first acc = function
    | [] -> None
    | pending :: rest ->
      if condition_holds t.mode ~local pending then begin
        t.queue <- List.rev_append acc rest;
        Some pending
      end
      else split_first (pending :: acc) rest
  in
  split_first [] t.queue

let drain t =
  let all = t.queue in
  t.queue <- [];
  all

let to_list t = t.queue
