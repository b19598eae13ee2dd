type t = {
  mutable multicasts_sent : int;
  mutable data_received : int;
  mutable delivered : int;
  delivery_delay_us : Stats.Summary.t;
  transit_us : Stats.Summary.t;
  mutable delayed_messages : int;
  mutable peak_unstable_bytes : int;
  mutable peak_unstable_count : int;
  mutable control_messages : int;
  mutable flush_messages : int;
  mutable header_bytes : int;
  mutable dropped_at_view_change : int;
  mutable suppressed_us : int;
  mutable view_changes : int;
}

let create () =
  { multicasts_sent = 0; data_received = 0; delivered = 0;
    delivery_delay_us = Stats.Summary.create ();
    transit_us = Stats.Summary.create (); delayed_messages = 0;
    peak_unstable_bytes = 0; peak_unstable_count = 0; control_messages = 0;
    flush_messages = 0; header_bytes = 0;
    dropped_at_view_change = 0; suppressed_us = 0; view_changes = 0 }

let raise_unstable_peak t ~count ~bytes =
  if bytes > t.peak_unstable_bytes then t.peak_unstable_bytes <- bytes;
  if count > t.peak_unstable_count then t.peak_unstable_count <- count
