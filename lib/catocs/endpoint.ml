type 'a t = {
  self : Engine.pid;
  engine : 'a Wire.t Transport.packet Engine.t;
  mutable transport : 'a Wire.t Transport.t option;
  groups : (int, src:Engine.pid -> 'a Wire.proto -> unit) Hashtbl.t;
  mutable on_direct : src:Engine.pid -> 'a -> unit;
}

let create ?obs ?registry ?framing ?batch_window ~engine ~self ~mode
    ?(on_direct = fun ~src:_ _ -> ()) () =
  let endpoint =
    { self; engine; transport = None; groups = Hashtbl.create 4; on_direct }
  in
  let deliver ~src (wire : 'a Wire.t) =
    match wire with
    | Wire.Proto (group, proto) ->
      (match Hashtbl.find endpoint.groups group with
       | handler -> handler ~src proto
       | exception Not_found -> ())
    | Wire.Direct payload -> endpoint.on_direct ~src payload
  in
  let transport =
    Transport.create ?obs ?registry ?framing ?batch_window ~engine ~self ~mode
      ~on_deliver:deliver ()
  in
  endpoint.transport <- Some transport;
  Engine.set_handler engine self (fun _self env -> Transport.handle transport env);
  endpoint

let self t = t.self
let engine t = t.engine

let transport t =
  match t.transport with
  | Some tr -> tr
  | None -> invalid_arg "Endpoint: transport not initialised"

let register_group t ~group handler = Hashtbl.replace t.groups group handler

let send_wire t ~dst wire = Transport.send (transport t) ~dst wire

let send_direct t ~dst payload = Transport.send (transport t) ~dst (Wire.Direct payload)

let set_on_direct t handler = t.on_direct <- handler

let packets_sent t = Transport.packets_sent (transport t)
