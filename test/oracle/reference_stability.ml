module Wire = Repro_catocs.Wire
module Metrics = Repro_catocs.Metrics

type 'a data = 'a Wire.data

type 'a t = {
  matrix : Group_clock.t;
  buffer : (Wire.msg_id, 'a data) Hashtbl.t;
  bytes_of : 'a data -> int;
  metrics : Metrics.t;
  graph : Causality.t option;
  obs : (Repro_obs.Log.t * int) option;
  registry : Repro_obs.Registry.t;
  lag_histo : Repro_obs.Histo.t;  (* fed only when [registry] is enabled *)
  mutable bytes : int;
}

let create ?clock ?(bytes_of = Wire.buffered_bytes) ?obs ?registry
    ~group_size ~metrics ~graph () =
  let registry =
    match registry with Some r -> r | None -> Repro_obs.Registry.null ()
  in
  let layer = Repro_obs.Event.Stability in
  ignore
    (Repro_obs.Registry.counter registry ~layer ~name:"minima_advances" ());
  { matrix = Group_clock.create ?impl:clock group_size;
    buffer = Hashtbl.create 64; bytes_of; metrics; graph; obs; registry;
    lag_histo =
      Repro_obs.Registry.histogram registry ~layer ~name:"stability_lag_us" ();
    bytes = 0 }

let buffer t (data : 'a data) =
  if not (Hashtbl.mem t.buffer data.Wire.msg_id) then begin
    Hashtbl.add t.buffer data.Wire.msg_id data;
    t.bytes <- t.bytes + t.bytes_of data;
    Metrics.raise_unstable_peak t.metrics ~count:(Hashtbl.length t.buffer)
      ~bytes:t.bytes
  end

let note_sent_or_delivered t (data : 'a data) =
  buffer t data;
  Group_clock.update_row t.matrix data.Wire.sender_rank data.Wire.vt

let note_delivered_diag t (data : 'a data) =
  buffer t data;
  let sender = data.Wire.sender_rank in
  Group_clock.update_cell t.matrix sender sender ~seq:(Wire.seq data)

let release t ~now (data : 'a data) =
  Hashtbl.remove t.buffer data.Wire.msg_id;
  t.bytes <- t.bytes - t.bytes_of data;
  if Repro_obs.Registry.enabled t.registry then
    Repro_obs.Histo.add t.lag_histo
      (float_of_int (Sim_time.to_us (Sim_time.sub now data.Wire.sent_at)));
  (match t.obs with
   | Some (log, pid) ->
     Repro_obs.Log.span_stable log ~at:now ~uid:data.Wire.msg_id ~pid
   | None -> ());
  match t.graph with
  | Some graph -> Causality.remove_stable graph data.Wire.msg_id
  | None -> ()

(* Rescan the whole buffer against the current matrix minima. *)
let release_stable t ~now =
  Hashtbl.fold
    (fun _ (data : 'a data) acc ->
      let sender = data.Wire.sender_rank in
      if Group_clock.stable t.matrix ~sender ~seq:(Wire.seq data) then
        data :: acc
      else acc)
    t.buffer []
  |> List.iter (release t ~now)

let observe_vc t ~live ~rank ~now vc =
  Group_clock.update_row ~live t.matrix rank vc;
  release_stable t ~now

let self_observe_cell t ~rank ~col ~seq ~now =
  Group_clock.update_cell t.matrix rank col ~seq;
  release_stable t ~now

let unstable t =
  Hashtbl.fold (fun _ data acc -> data :: acc) t.buffer []
  |> List.sort Wire.compare_stamping

let unstable_count t = Hashtbl.length t.buffer
let unstable_bytes t = t.bytes
let matrix t = t.matrix
