type 'v t = (string, 'v * int) Hashtbl.t

let create () : 'v t = Hashtbl.create 32

let put t ~key value =
  let next =
    match Hashtbl.find_opt t key with Some (_, v) -> v + 1 | None -> 1
  in
  Hashtbl.replace t key (value, next);
  next

let get t ~key =
  match Hashtbl.find_opt t key with Some (v, _) -> Some v | None -> None

let version t ~key =
  match Hashtbl.find_opt t key with Some (_, v) -> v | None -> 0

let delete t ~key = Hashtbl.remove t key
let mem t ~key = Hashtbl.mem t key

let size t = Hashtbl.length t

let snapshot t =
  Hashtbl.fold (fun k (v, ver) acc -> (k, v, ver) :: acc) t []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let equal_content a b =
  size a = size b
  && List.for_all
       (fun (k, v, _) -> match get b ~key:k with Some v' -> v' = v | None -> false)
       (snapshot a)
