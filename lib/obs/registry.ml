(* Protocol-metrics registry: typed counter/gauge/histogram handles keyed by
   (layer, name, labels).

   Registration returns a bare mutable cell, so the hot path is one store
   with no hashing or branching. A disabled registry hands out *scrap*
   cells that are never entered in the table: increments still cost one
   store (cheaper than a branch would be), snapshots come back empty, and
   nothing registered while disabled is retained — the same
   attached-but-off discipline as [Log].

   Snapshots are sorted by (layer, name, labels) and merge by key —
   counters and gauges add, histograms merge bucket-wise — so per-stack
   registries aggregate into group totals whose value is independent of
   stack iteration order or engine domain count. *)

type key = {
  layer : Event.layer;
  name : string;
  labels : (string * string) list;  (* kept sorted by label key *)
}

type counter = { mutable n : int }
type gauge = { mutable g : int }

type cell = C of counter | G of gauge | H of Histo.t

type t = {
  enabled : bool;
  cells : (key, cell) Hashtbl.t;
  scrap_counter : counter;
  scrap_gauge : gauge;
  scrap_histo : Histo.t;
}

let create ?(enabled = true) () =
  { enabled;
    cells = Hashtbl.create 64;
    scrap_counter = { n = 0 };
    scrap_gauge = { g = 0 };
    scrap_histo = Histo.create () }

(* One process-wide disabled instance for callers whose owner attached no
   registry: every handle it returns is scrap, so instrumented modules can
   hold plain cells with no option in sight. Scrap stores may race across
   engine domains; the garbage lands in cells nothing ever reads. *)
let null_instance = create ~enabled:false ()
let null () = null_instance

let enabled t = t.enabled

let key ~layer ~name ~labels =
  { layer; name;
    labels = List.sort (fun (a, _) (b, _) -> String.compare a b) labels }

let register t k make wrong =
  match Hashtbl.find_opt t.cells k with
  | Some cell -> (
    match wrong cell with
    | Some v -> v
    | None ->
      invalid_arg
        (Printf.sprintf "Obs.Registry: %s/%s registered with two types"
           (Event.layer_name k.layer) k.name))
  | None ->
    let v, cell = make () in
    Hashtbl.add t.cells k cell;
    v

let counter t ~layer ~name ?(labels = []) () =
  if not t.enabled then t.scrap_counter
  else
    register t (key ~layer ~name ~labels)
      (fun () ->
        let c = { n = 0 } in
        (c, C c))
      (function C c -> Some c | G _ | H _ -> None)

let gauge t ~layer ~name () =
  if not t.enabled then t.scrap_gauge
  else
    register t (key ~layer ~name ~labels:[])
      (fun () ->
        let g = { g = 0 } in
        (g, G g))
      (function G g -> Some g | C _ | H _ -> None)

let histogram t ~layer ~name () =
  if not t.enabled then t.scrap_histo
  else
    register t (key ~layer ~name ~labels:[])
      (fun () ->
        let h = Histo.create () in
        (h, H h))
      (function H h -> Some h | C _ | G _ -> None)

let incr c = c.n <- c.n + 1
let add c by = c.n <- c.n + by
let value c = c.n
let set g v = g.g <- v
let gauge_value g = g.g

(* ------------------------------------------------------------------------ *)
(* Snapshots *)

type sample = Counter_v of int | Gauge_v of int | Histo_v of Histo.t

type snapshot = (key * sample) list

let compare_key a b =
  let c =
    String.compare (Event.layer_name a.layer) (Event.layer_name b.layer)
  in
  if c <> 0 then c
  else
    let c = String.compare a.name b.name in
    if c <> 0 then c else compare a.labels b.labels

let copy_histo h =
  let c = Histo.create () in
  Histo.merge c h;
  c

let snapshot t =
  Hashtbl.fold
    (fun k cell acc ->
      let sample =
        match cell with
        | C c -> Counter_v c.n
        | G g -> Gauge_v g.g
        | H h -> Histo_v (copy_histo h)
      in
      (k, sample) :: acc)
    t.cells []
  |> List.sort (fun (a, _) (b, _) -> compare_key a b)

let merge_sample a b =
  match (a, b) with
  | Counter_v x, Counter_v y -> Counter_v (x + y)
  | Gauge_v x, Gauge_v y -> Gauge_v (x + y)
  | Histo_v x, Histo_v y ->
    let h = copy_histo x in
    Histo.merge h y;
    Histo_v h
  | _ -> invalid_arg "Obs.Registry.merge: same key, different sample types"

(* both inputs sorted by key, so a list merge keeps the result sorted *)
let merge (a : snapshot) (b : snapshot) : snapshot =
  let rec go a b acc =
    match (a, b) with
    | [], rest | rest, [] -> List.rev_append acc rest
    | (ka, va) :: ta, (kb, vb) :: tb ->
      let c = compare_key ka kb in
      if c < 0 then go ta b ((ka, va) :: acc)
      else if c > 0 then go a tb ((kb, vb) :: acc)
      else go ta tb ((ka, merge_sample va vb) :: acc)
  in
  go a b []

let merge_all = function [] -> [] | s :: rest -> List.fold_left merge s rest

let find snap ~layer ~name =
  List.filter (fun (k, _) -> k.layer = layer && k.name = name) snap

let counter_total snap ~layer ~name =
  List.fold_left
    (fun acc (_, s) -> match s with Counter_v n -> acc + n | _ -> acc)
    0
    (find snap ~layer ~name)

let gauge_total snap ~layer ~name =
  List.fold_left
    (fun acc (_, s) -> match s with Gauge_v n -> acc + n | _ -> acc)
    0
    (find snap ~layer ~name)

let histo snap ~layer ~name =
  match
    List.filter_map
      (fun (_, s) -> match s with Histo_v h -> Some h | _ -> None)
      (find snap ~layer ~name)
  with
  | [] -> None
  | hs ->
    let acc = Histo.create () in
    List.iter (Histo.merge acc) hs;
    Some acc

(* ------------------------------------------------------------------------ *)
(* Exporters *)

let quantiles = [ (0.5, "0.5"); (0.99, "0.99"); (0.999, "0.999") ]

(* Prometheus text format: metric names [catocs_<layer>_<name>], counters
   with a [_total] suffix, histograms rendered as summaries (quantile
   labels plus _count/_sum). *)
let to_prometheus (snap : snapshot) =
  let buf = Buffer.create 1024 in
  let base k = Printf.sprintf "catocs_%s_%s" (Event.layer_name k.layer) k.name in
  let label_str extra k =
    match extra @ k.labels with
    | [] -> ""
    | kvs ->
      "{"
      ^ String.concat ","
          (List.map (fun (lk, lv) -> Printf.sprintf "%s=%S" lk lv) kvs)
      ^ "}"
  in
  let typed = Hashtbl.create 16 in
  let type_line k kind =
    let b = base k in
    if not (Hashtbl.mem typed b) then begin
      Hashtbl.add typed b ();
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" b kind)
    end
  in
  List.iter
    (fun (k, sample) ->
      match sample with
      | Counter_v n ->
        type_line { k with name = k.name ^ "_total" } "counter";
        Buffer.add_string buf
          (Printf.sprintf "%s_total%s %d\n" (base k) (label_str [] k) n)
      | Gauge_v n ->
        type_line k "gauge";
        Buffer.add_string buf
          (Printf.sprintf "%s%s %d\n" (base k) (label_str [] k) n)
      | Histo_v h ->
        type_line k "summary";
        List.iter
          (fun (q, qs) ->
            let v = if Histo.count h = 0 then 0.0 else Histo.percentile h q in
            Buffer.add_string buf
              (Printf.sprintf "%s%s %.6g\n" (base k)
                 (label_str [ ("quantile", qs) ] k)
                 v))
          quantiles;
        Buffer.add_string buf
          (Printf.sprintf "%s_sum%s %.6g\n" (base k) (label_str [] k)
             (Histo.sum h));
        Buffer.add_string buf
          (Printf.sprintf "%s_count%s %d\n" (base k) (label_str [] k)
             (Histo.count h)))
    snap;
  Buffer.contents buf

let to_json (snap : snapshot) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"schema_version\":1,\"metrics\":[";
  List.iteri
    (fun i (k, sample) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "{\"layer\":\"%s\",\"name\":\"%s\",\"labels\":{%s},"
           (Event.layer_name k.layer) (Export.escape k.name)
           (String.concat ","
              (List.map
                 (fun (lk, lv) ->
                   Printf.sprintf "\"%s\":\"%s\"" (Export.escape lk)
                     (Export.escape lv))
                 k.labels)));
      (match sample with
       | Counter_v n ->
         Buffer.add_string buf
           (Printf.sprintf "\"type\":\"counter\",\"value\":%d}" n)
       | Gauge_v n ->
         Buffer.add_string buf
           (Printf.sprintf "\"type\":\"gauge\",\"value\":%d}" n)
       | Histo_v h ->
         let q p = if Histo.count h = 0 then 0.0 else Histo.percentile h p in
         Buffer.add_string buf
           (Printf.sprintf
              "\"type\":\"histogram\",\"count\":%d,\"sum\":%.6g,\"p50\":%.6g,\"p99\":%.6g,\"p999\":%.6g}"
              (Histo.count h) (Histo.sum h) (q 0.5) (q 0.99) (q 0.999))))
    snap;
  Buffer.add_string buf "]}";
  Buffer.contents buf

(* Snapshot identity for determinism tests: histogram buckets are included,
   so two fingerprints agree iff counter/gauge totals and full latency
   distributions agree. *)
let fingerprint (snap : snapshot) =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (k, sample) ->
      Buffer.add_string buf (Event.layer_name k.layer);
      Buffer.add_char buf '/';
      Buffer.add_string buf k.name;
      List.iter
        (fun (lk, lv) -> Buffer.add_string buf (Printf.sprintf "|%s=%s" lk lv))
        k.labels;
      (match sample with
       | Counter_v n -> Buffer.add_string buf (Printf.sprintf "=C%d" n)
       | Gauge_v n -> Buffer.add_string buf (Printf.sprintf "=G%d" n)
       | Histo_v h ->
         Buffer.add_string buf (Printf.sprintf "=H%d:%.6g" (Histo.count h)
           (Histo.sum h));
         List.iter
           (fun (lo, _, n) ->
             Buffer.add_string buf (Printf.sprintf ";%.6g*%d" lo n))
           (Histo.buckets h));
      Buffer.add_char buf '\n')
    snap;
  Digest.to_hex (Digest.string (Buffer.contents buf))
