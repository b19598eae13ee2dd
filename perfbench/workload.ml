(* The three benchmark workloads and their seed-derived generators.

   Every workload is open-loop in simulated time: each member multicasts on
   a fixed period whether or not its earlier multicasts were delivered. The
   generator owns the send phases and the fault schedule; the protocol stack
   only ever sees the resulting [Stack.multicast] calls, crashes and joins. *)

module Config = Repro_catocs.Config

type kind = Bss_dense | Pc_encoded | Abcast_faults

let all = [ Bss_dense; Pc_encoded; Abcast_faults ]

let name = function
  | Bss_dense -> "bss-dense"
  | Pc_encoded -> "pc-encoded"
  | Abcast_faults -> "abcast-faults"

let of_name s = List.find_opt (fun k -> String.equal (name k) s) all

(* One crash-then-join cycle of [abcast-faults]. The victim is named by its
   rank in the view current at [crash_at] (rank 0 is the sequencer); the
   replacement is a fresh process that joins at [join_at]. *)
type fault = { crash_at : Sim_time.t; victim_rank : int; join_at : Sim_time.t }

type t = {
  kind : kind;
  n : int;  (** initial group size *)
  config : Config.t;
  latency : Net.latency;
  drop_probability : float;
  send_period : Sim_time.t;
  send_until : Sim_time.t;  (** no multicast is scheduled at or after this *)
  run_until : Sim_time.t;  (** [send_until] plus the drain *)
  phases : Sim_time.t array;
      (** first-send offset of initial member [i]; joiners reuse
          [phases.(slot mod n)] relative to their join instant *)
  faults : fault list;
  engine_seed : int64;
}

(* the reordering network every workload shares: sub-period jitter, so
   BSS receivers see cross-sender reordering on every round *)
let latency = Net.Uniform (Sim_time.us 500, Sim_time.ms 5)

let config = function
  | Bss_dense ->
    { Config.default with
      Config.ordering = Config.Causal;
      causal_impl = Config.Vector_causal;
      stability_clock = Config.Dense_clock;
      wire_format = Config.Structural;
      transport = Config.Bare;
      track_graph = false }
  | Pc_encoded ->
    (* [with_causal_impl] upgrades the bare transport to Fifo_order, the
       FIFO links PC-broadcast's causality argument needs *)
    Config.with_causal_impl Config.Pc_causal
      { Config.default with
        Config.ordering = Config.Causal;
        pc_overlay = Config.Pc_tree { fanout = 8 };
        stability_clock = Config.Sparse_clock;
        wire_format = Config.Encoded;
        track_graph = false }
  | Abcast_faults ->
    { Config.default with
      Config.ordering = Config.Total_sequencer;
      transport = Config.Reliable { rto = Sim_time.ms 10; max_retries = 400 };
      failure_detection = Config.Oracle;
      track_graph = false }

(* [small] shrinks group size and duration for the self-test run under
   [dune runtest]; the benchmark proper always runs full size. *)
let make ?(small = false) kind ~seed =
  let gen = Rng.create (Int64.of_int ((seed * 7_919) + 104_729)) in
  let n, send_period, send_until, drain =
    match kind with
    | Bss_dense | Pc_encoded ->
      if small then (16, Sim_time.ms 10, Sim_time.ms 150, Sim_time.ms 200)
      else (64, Sim_time.ms 10, Sim_time.ms 600, Sim_time.ms 200)
    | Abcast_faults ->
      if small then (8, Sim_time.ms 5, Sim_time.ms 700, Sim_time.ms 1_000)
      else (16, Sim_time.ms 5, Sim_time.ms 2_400, Sim_time.ms 1_000)
  in
  let phases =
    Array.init n (fun _ -> Sim_time.add (Sim_time.ms 1) (Rng.int gen send_period))
  in
  let faults =
    match kind with
    | Bss_dense | Pc_encoded -> []
    | Abcast_faults ->
      (* one crash every 300ms, the replacement joining 150ms later so at
         most one view change is in flight at a time; every third victim is
         the sequencer, the others are drawn from the remaining ranks *)
      let cycles = (send_until - Sim_time.ms 300) / Sim_time.ms 300 in
      List.init cycles (fun k ->
          let crash_at =
            Sim_time.add
              (Sim_time.ms (300 * (k + 1)))
              (Rng.int gen (Sim_time.ms 60))
          in
          let victim_rank = if k mod 3 = 0 then 0 else 1 + Rng.int gen (n - 1) in
          { crash_at; victim_rank; join_at = Sim_time.add crash_at (Sim_time.ms 150) })
  in
  { kind; n; config = config kind; latency;
    drop_probability =
      (match kind with Abcast_faults -> 0.005 | Bss_dense | Pc_encoded -> 0.0);
    send_period; send_until; run_until = Sim_time.add send_until drain; phases;
    faults;
    engine_seed = Int64.of_int ((seed * 1_000_003) + 7_919) }

(* multicasts every initial member schedules: an upper bound on the
   multicast count of a fault-free run, used to presize recording arrays *)
let planned_multicasts w =
  Array.fold_left
    (fun acc phase ->
      if phase >= w.send_until then acc
      else acc + 1 + ((w.send_until - 1 - phase) / w.send_period))
    0 w.phases
