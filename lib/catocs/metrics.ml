type t = {
  mutable multicasts_sent : int;
  mutable data_received : int;
  mutable delivered : int;
  delivery_delay_us : Stats.Summary.t;
  transit_us : Stats.Summary.t;
  stability_lag_us : Stats.Summary.t;
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
    transit_us = Stats.Summary.create ();
    stability_lag_us = Stats.Summary.create (); delayed_messages = 0;
    peak_unstable_bytes = 0; peak_unstable_count = 0; control_messages = 0;
    flush_messages = 0; header_bytes = 0;
    dropped_at_view_change = 0; suppressed_us = 0; view_changes = 0 }

let raise_unstable_peak t ~count ~bytes =
  if bytes > t.peak_unstable_bytes then t.peak_unstable_bytes <- bytes;
  if count > t.peak_unstable_count then t.peak_unstable_count <- count

let merge_into acc m =
  Stats.Summary.merge acc.delivery_delay_us m.delivery_delay_us;
  Stats.Summary.merge acc.transit_us m.transit_us;
  Stats.Summary.merge acc.stability_lag_us m.stability_lag_us;
  acc.multicasts_sent <- acc.multicasts_sent + m.multicasts_sent;
  acc.data_received <- acc.data_received + m.data_received;
  acc.delivered <- acc.delivered + m.delivered;
  acc.delayed_messages <- acc.delayed_messages + m.delayed_messages;
  acc.peak_unstable_bytes <- max acc.peak_unstable_bytes m.peak_unstable_bytes;
  acc.peak_unstable_count <- max acc.peak_unstable_count m.peak_unstable_count;
  acc.control_messages <- acc.control_messages + m.control_messages;
  acc.flush_messages <- acc.flush_messages + m.flush_messages;
  acc.header_bytes <- acc.header_bytes + m.header_bytes;
  acc.dropped_at_view_change <-
    acc.dropped_at_view_change + m.dropped_at_view_change;
  acc.suppressed_us <- acc.suppressed_us + m.suppressed_us;
  acc.view_changes <- acc.view_changes + m.view_changes
