type 'a group = {
  handler : src:Engine.pid -> 'a Wire.proto -> unit;
  lists : Engine.pid -> bool;
}

type 'a t = {
  transport : 'a Wire.t Transport.t;
  groups : (int, 'a group) Hashtbl.t;
  on_direct : (src:Engine.pid -> 'a -> unit) ref;
}

let create ?obs ?registry ?framing ~engine ~self ~mode
    ?(on_direct = fun ~src:_ _ -> ()) () =
  let groups = Hashtbl.create 4 in
  let on_direct = ref on_direct in
  let deliver ~src (wire : 'a Wire.t) =
    match wire with
    | Wire.Proto (group, proto) ->
      (match Hashtbl.find groups group with
       | g -> g.handler ~src proto
       | exception Not_found -> ())
    | Wire.Direct payload -> !on_direct ~src payload
  in
  let transport =
    Transport.create ?obs ?registry ?framing ~engine ~self ~mode
      ~on_deliver:deliver ()
  in
  Engine.set_handler engine self (fun _self env -> Transport.handle transport env);
  { transport; groups; on_direct }

let register_group t ~group ~lists handler =
  Hashtbl.replace t.groups group { handler; lists }

let peer_left t pid =
  if not (Seq.exists (fun g -> g.lists pid) (Hashtbl.to_seq_values t.groups))
  then Transport.give_up t.transport ~dst:pid

let send_wire t ~dst wire = Transport.send t.transport ~dst wire

let send_direct t ~dst payload = Transport.send t.transport ~dst (Wire.Direct payload)

let set_on_direct t handler = t.on_direct := handler

let packets_sent t = Transport.packets_sent t.transport
