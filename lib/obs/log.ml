type t = {
  mutable enabled : bool;
  cap : int;
  mutable buf : Event.record array;
  mutable start : int;  (* index of the oldest record once the ring wraps *)
  mutable len : int;
  mutable dropped : int;
  lock : Mutex.t option;  (* Some _ when shared across engine domains *)
}

let dummy =
  { Event.at = Sim_time.zero; layer = Event.App;
    event = Event.Gauge_sample { pid = -1; gauge = Event.Queue_depth; value = 0 } }

let create ?(cap = 1 lsl 20) ?(enabled = true) ?(synchronized = false) () =
  if cap <= 0 then invalid_arg "Obs.Log.create: cap must be positive";
  { enabled; cap; buf = Array.make (min cap 1024) dummy; start = 0; len = 0;
    dropped = 0;
    lock = (if synchronized then Some (Mutex.create ()) else None) }

let enabled t = t.enabled
let set_enabled t flag = t.enabled <- flag
let synchronized t = t.lock <> None
let length t = t.len
let dropped t = t.dropped

(* [start] stays 0 until the first overwrite, so growth never has to unwrap
   a rotated ring: while there is room to grow we are still appending
   linearly. *)
let push_unlocked t at event =
  let n = Array.length t.buf in
  if t.len < n then begin
    t.buf.((t.start + t.len) mod n) <-
      { Event.at; layer = Event.layer_of event; event };
    t.len <- t.len + 1
  end
  else if n < t.cap then begin
    let buf = Array.make (min t.cap (2 * n)) dummy in
    Array.blit t.buf 0 buf 0 n;
    t.buf <- buf;
    buf.(t.len) <- { Event.at; layer = Event.layer_of event; event };
    t.len <- t.len + 1
  end
  else begin
    t.buf.(t.start) <- { Event.at; layer = Event.layer_of event; event };
    t.start <- (t.start + 1) mod n;
    t.dropped <- t.dropped + 1
  end

(* A [synchronized] log serializes pushes so stacks running on different
   engine domains can share one log. Record *order* across pids is then
   scheduler-dependent, but the record *set* (and every per-pid subsequence)
   stays deterministic — consumers that sort, like [Trace_tree], produce
   byte-identical output at every domain count. *)
let push t at event =
  match t.lock with
  | None -> push_unlocked t at event
  | Some m ->
    Mutex.lock m;
    push_unlocked t at event;
    Mutex.unlock m

let span_send t ~at ~uid ~pid ~bytes =
  if t.enabled then push t at (Event.Span_send { uid; pid; bytes })

let span_recv t ~at ~uid ~pid =
  if t.enabled then push t at (Event.Span_recv { uid; pid })

let span_queued t ~at ~uid ~pid =
  if t.enabled then push t at (Event.Span_queued { uid; pid })

let span_delivered t ~at ~uid ~pid =
  if t.enabled then push t at (Event.Span_delivered { uid; pid })

let span_stable t ~at ~uid ~pid =
  if t.enabled then push t at (Event.Span_stable { uid; pid })

let flush_start t ~at ~pid ~view_id =
  if t.enabled then push t at (Event.View_flush_start { pid; view_id })

let flush_end t ~at ~pid ~view_id =
  if t.enabled then push t at (Event.View_flush_end { pid; view_id })

let retransmit t ~at ~pid ~dst ~seq ~attempt =
  if t.enabled then push t at (Event.Retransmit { pid; dst; seq; attempt })

let gauge t ~at ~pid g value =
  if t.enabled then push t at (Event.Gauge_sample { pid; gauge = g; value })

let hop_send t ~at ~uid ~pid ~dst kind =
  if t.enabled then push t at (Event.Hop_send { uid; pid; dst; kind })

let iter t f =
  let n = Array.length t.buf in
  for i = 0 to t.len - 1 do
    f t.buf.((t.start + i) mod n)
  done

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun r -> acc := f !acc r);
  !acc
