module Exec = Repro_analyze.Exec
module Hb = Repro_analyze.Hb

(* pid -> (uid, position of its first delivery) in delivery order *)
let first_positions (e : Exec.t) =
  List.sort_uniq Int.compare
    (List.map (fun (d : Exec.delivery) -> d.d_pid) e.deliveries)
  |> List.map (fun pid ->
         let indexed =
           List.filter_map
             (fun (d : Exec.delivery) ->
               if d.d_pid = pid then Some d.d_uid else None)
             e.deliveries
           |> List.mapi (fun i uid -> (uid, i))
         in
         ( pid,
           List.filter
             (fun (uid, i) ->
               not (List.exists (fun (u, j) -> u = uid && j < i) indexed))
             indexed ))

let inversions hb =
  List.concat_map
    (fun (pid, delivered) ->
      List.concat_map
        (fun (u1, p1) ->
          List.filter_map
            (fun (u2, p2) ->
              if
                u1 <> u2 && p1 > p2
                && Hb.reaches hb ~transport_only:true (Exec.Send_ev u1)
                     (Exec.Send_ev u2)
              then Some (pid, u1, u2)
              else None)
            delivered)
        delivered)
    (first_positions (Hb.exec hb))
  |> List.sort compare
