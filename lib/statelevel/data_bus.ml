type update = {
  subject : string;
  version : int;
  value : float;
  deps : (string * int) list;
}

module Publisher = struct
  type t = {
    send : update -> unit;
    versions : float Versioned.store;
  }

  let create ~send = { send; versions = Versioned.create_store () }

  let publish t ~subject ?(deps = []) value =
    let version = Versioned.put t.versions ~key:subject value in
    t.send { subject; version; value; deps };
    version

  let version t ~subject = Versioned.version t.versions ~key:subject
end

module Subscriber = struct
  type t = {
    cache : float Dep_cache.t;
    on_expose : subject:string -> version:int -> float -> unit;
    mutable exposed_versions : (string * int) list;
        (* versions already announced through on_expose *)
  }

  let create ?(on_expose = fun ~subject:_ ~version:_ _ -> ()) () =
    { cache = Dep_cache.create (); on_expose; exposed_versions = [] }

  let announce_new_exposures t subjects =
    List.iter
      (fun subject ->
        match Dep_cache.lookup t.cache ~key:subject with
        | Some item ->
          let version = item.Dep_cache.item_version in
          if not (List.mem (subject, version) t.exposed_versions) then begin
            t.exposed_versions <- (subject, version) :: t.exposed_versions;
            t.on_expose ~subject ~version item.Dep_cache.value
          end
        | None -> ())
      subjects

  let receive t update =
    Dep_cache.insert t.cache
      { Dep_cache.key = update.subject;
        item_version = update.version;
        value = update.value;
        deps =
          List.map
            (fun (dep_key, dep_version) -> { Dep_cache.dep_key; dep_version })
            update.deps };
    (* an insert can expose the new subject and unblock parked dependents:
       announce everything newly visible *)
    announce_new_exposures t (Dep_cache.exposed_keys t.cache)

  let read t ~subject =
    match Dep_cache.lookup t.cache ~key:subject with
    | Some item -> Some (item.Dep_cache.value, item.Dep_cache.item_version)
    | None -> None

  let read_any t ~subject =
    match Dep_cache.lookup_any t.cache ~key:subject with
    | Some item -> Some (item.Dep_cache.value, item.Dep_cache.item_version)
    | None -> None

  let parked t = Dep_cache.parked_count t.cache
end
