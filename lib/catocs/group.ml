type view = { view_id : int; members : Engine.pid array }

let make_view ~view_id members =
  let arr = Array.of_list (List.sort_uniq Int.compare members) in
  if Array.length arr = 0 then invalid_arg "Group.make_view: empty membership";
  { view_id; members = arr }

let size view = Array.length view.members

(* members are sorted (make_view sort_uniq's), so rank lookup can bisect;
   top-level, so a lookup allocates neither a closure nor an option *)
let rec search members pid lo hi =
  if lo > hi then -1
  else
    let mid = (lo + hi) / 2 in
    let v = members.(mid) in
    if v = pid then mid
    else if v < pid then search members pid (mid + 1) hi
    else search members pid lo (mid - 1)

let find_rank view pid =
  search view.members pid 0 (Array.length view.members - 1)

let rank_of view pid =
  let r = find_rank view pid in
  if r < 0 then None else Some r

let rank_of_exn view pid =
  let r = find_rank view pid in
  if r < 0 then invalid_arg "Group.rank_of_exn: pid not in view" else r

let member view rank = view.members.(rank)

let mem view pid = find_rank view pid >= 0

let coordinator view = view.members.(0)

let remove view pids ~new_view_id =
  let survivors =
    Array.to_list view.members |> List.filter (fun p -> not (List.mem p pids))
  in
  make_view ~view_id:new_view_id survivors

let pp ppf view =
  Format.fprintf ppf "view#%d{%a}" view.view_id
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    (Array.to_list view.members)
