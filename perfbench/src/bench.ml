(* The runner: repeats a workload's unit for the run's time budget,
   guards the deterministic values, and reduces everything to the
   metrics named in BENCHMARK.json. *)

type workload = {
  name : string;
  tail : float;  (** the op_ms_tail percentile: the highest with ten samples beyond it *)
  jobs : int;  (** the -j the workload runs its engine or daemon at *)
  run_unit : seed:int -> index:int -> traced:bool -> Outcome.t;
}

(* Every per-layer metric, in BENCHMARK.json order; the per-pass ones
   follow the pipeline, so a renamed or added pass shows up as a
   mismatch with BENCHMARK.json in the benchmark's tests. A layer a
   workload does not exercise reads 0 on it. *)
let per_layer =
  [ ("lang.frontend_s", "s") ]
  @ List.concat_map
      (fun p -> [ ("core.pass." ^ p ^ "_s", "s"); ("core.pass." ^ p ^ ".instrs", "count") ])
      Cold_compile.pass_names
  @ [ ("core.verify_s", "s"); ("core.measure_s", "s"); ("core.unattributed_s", "s");
      ("transform.safara.rounds", "count"); ("transform.safara.applied", "count");
      ("transform.safara.skipped", "count"); ("transform.safara.s_per_round", "s");
      ("ptxas.regs_sum", "count"); ("ptxas.spill_bytes_sum", "bytes");
      ("ptxas.instrs_sum", "count");
      ("sim.ms_geomean", "sim_ms"); ("sim.prepare_s", "s"); ("sim.timing_s", "s");
      ("sim.timing_warp_instrs", "count"); ("sim.timing_minstr_per_s", "Minstr/s");
      ("sim.transactions", "count"); ("sim.occupancy_mean", "ratio"); ("sim.interp_s", "s");
      ("sim.interp_thread_instrs", "count"); ("sim.interp_minstr_per_s", "Minstr/s");
      ("sim.blockpar_s", "s"); ("sim.parallel_kernels", "count");
      ("sim.serial_kernels", "count");
      ("suites.experiments_s", "s"); ("suites.simulate_s", "s");
      ("engine.compile_hits", "count"); ("engine.compile_misses", "count");
      ("engine.sim_hits", "count"); ("engine.sim_misses", "count");
      ("engine.compile_phase_s", "s"); ("engine.sim_phase_s", "s");
      ("engine.pool_idle_s", "s");
      ("engine.store.disk_hits", "count"); ("engine.store.disk_misses", "count");
      ("engine.store.bytes_read", "bytes"); ("engine.store.bytes_written", "bytes");
      ("engine.store.corrupt", "count");
      ("serve.hit_served_ms_p50", "ms"); ("serve.disk_served_ms_p50", "ms");
      ("serve.miss_served_ms_p50", "ms"); ("serve.transport_ms_p50", "ms");
      ("trace.unattributed_s", "s"); ("trace.overhead.unit_s", "s");
      ("trace.overhead.op_ms_p50", "ms"); ("trace.spans", "count") ]

(* ------------------------------------------------------------------ *)
(* Determinism guard                                                   *)
(* ------------------------------------------------------------------ *)

let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Values named alike must agree within the run, and with every earlier
   run of the same build in this checkout (any seed, traced or not):
   the state file is keyed by the digest of the benchmark binary, so a
   rebuilt program starts a fresh record. Returns the disagreements. *)
let guard ~state_file (units : Outcome.t list) =
  let seen = Hashtbl.create 32 and problems = ref [] in
  let add src (k, v) =
    match Hashtbl.find_opt seen k with
    | None -> Hashtbl.replace seen k v
    | Some v0 when same v0 v -> ()
    | Some v0 -> problems := Printf.sprintf "%s: %.17g %s, was %.17g" k v src v0 :: !problems
  in
  let earlier =
    match state_file with
    | Some f when Sys.file_exists f ->
        List.filter_map
          (fun line ->
            match String.split_on_char ' ' line with
            | [ k; v ] -> Option.map (fun v -> (k, v)) (float_of_string_opt v)
            | _ -> None)
          (String.split_on_char '\n' (Util.read_file f))
    | _ -> []
  in
  List.iter (add "in an earlier run") earlier;
  List.iter (fun (u : Outcome.t) -> List.iter (add "in this run") u.Outcome.det) units;
  (match state_file with
  | Some f when !problems = [] && Hashtbl.length seen > 0 ->
      Util.mkdir_p (Filename.dirname f);
      let lines = Hashtbl.fold (fun k v acc -> Printf.sprintf "%s %h" k v :: acc) seen [] in
      Util.write_file f (String.concat "\n" (List.sort compare lines) ^ "\n")
  | _ -> ());
  List.rev !problems

(* ------------------------------------------------------------------ *)
(* Running                                                             *)
(* ------------------------------------------------------------------ *)

(* Units run back to back while the next one is expected to end within
   [seconds], and at least two run, so every median has two samples; a
   traced run alternates untraced and traced units so the tracing
   overhead is measured under the same conditions. *)
let run_units wl ~seed ~seconds ~trace =
  let start = Unix.gettimeofday () in
  let rec go i acc =
    let traced = trace && i mod 2 = 1 in
    Atomic.set Span.enabled traced;
    let u =
      Fun.protect ~finally:(fun () -> Atomic.set Span.enabled false) (fun () ->
          wl.run_unit ~seed ~index:i ~traced)
    in
    let acc = (traced, u) :: acc in
    (* hand the finished unit's heap back, so every unit starts from
       the same memory state and the process peak is one unit's peak *)
    Gc.compact ();
    let elapsed = Unix.gettimeofday () -. start in
    let per_unit = elapsed /. float_of_int (i + 1) in
    if i = 0 || elapsed +. per_unit <= seconds then go (i + 1) acc else List.rev acc
  in
  go 0 []

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string * int) list;  (** name, value, unit, samples *)
  units : int * int;  (** untraced, traced *)
  problems : string list;
  spans : Span.t list;
}

let mean = function [] -> 0. | l -> Util.sum l /. float_of_int (List.length l)

let summarize wl ~trace ~state_file units =
  let untraced = List.filter_map (fun (t, u) -> if t then None else Some u) units in
  let traced = List.filter_map (fun (t, u) -> if t then Some u else None) units in
  let all = List.map snd units in
  let attempted = List.fold_left (fun a (u : Outcome.t) -> a + u.Outcome.attempted) 0 all in
  let failures = List.concat_map (fun (u : Outcome.t) -> u.Outcome.failures) all in
  let spans = List.concat_map (fun (u : Outcome.t) -> u.Outcome.spans) traced in
  let det_problems = guard ~state_file all in
  let span_problems =
    (match Span.check_balanced spans with Some p -> [ "trace: " ^ p ] | None -> [])
    @ if Span.open_spans () > 0 then [ "trace: spans left open" ] else []
  in
  let setups = List.concat_map (fun (u : Outcome.t) -> u.Outcome.setup_s) untraced in
  let walls us = List.map (fun (u : Outcome.t) -> u.Outcome.wall_s) us in
  let ops us = List.concat_map (fun (u : Outcome.t) -> u.Outcome.ops_ms) us in
  let mem, mem_n =
    match List.filter_map (fun (u : Outcome.t) -> u.Outcome.mem_mb) untraced with
    | [] -> (Option.value (Util.peak_rss_mb None) ~default:nan, 1)
    | l -> (Util.median l, List.length l)
  in
  let metrics =
    if not trace then
      let n_ops = List.length (ops untraced) and n_units = List.length untraced in
      [ ("setup_s", Util.median setups, "s", List.length setups);
        ("unit_s", Util.median (walls untraced), "s", n_units);
        ("op_ms_p50", Util.median (ops untraced), "ms", n_ops);
        ("op_ms_tail", Util.percentile wl.tail (ops untraced), "ms", n_ops);
        ("mem_mb", mem, "MiB", mem_n) ]
    else begin
      let tbl = Hashtbl.create 128 in
      let names =
        List.sort_uniq compare
          (List.concat_map
             (fun (u : Outcome.t) -> List.map fst (u.Outcome.layers @ u.Outcome.det))
             traced)
      in
      List.iter
        (fun n ->
          let vs =
            List.filter_map
              (fun (u : Outcome.t) -> List.assoc_opt n (u.Outcome.layers @ u.Outcome.det))
              traced
          in
          Hashtbl.replace tbl n (mean vs))
        names;
      Hashtbl.replace tbl "trace.overhead.unit_s"
        (Util.median (walls traced) -. Util.median (walls untraced));
      Hashtbl.replace tbl "trace.overhead.op_ms_p50"
        (Util.median (ops traced) -. Util.median (ops untraced));
      Hashtbl.replace tbl "trace.spans"
        (float_of_int (List.length spans) /. float_of_int (max 1 (List.length traced)));
      List.map
        (fun (n, unit) ->
          (n, Option.value (Hashtbl.find_opt tbl n) ~default:0., unit, List.length traced))
        per_layer
    end
  in
  let problems = det_problems @ span_problems in
  { correct = failures = [] && problems = [];
    attempted; failed = List.length failures;
    metrics; units = (List.length untraced, List.length traced); problems = List.filteri (fun i _ -> i < 20) (failures @ problems);
    spans }

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

module J = Safara_serve.Sjson

let result_json r =
  J.Obj
    [ ("correct", J.Bool r.correct); ("attempted", J.int r.attempted);
      ("failed", J.int r.failed);
      ("metrics",
       J.Obj
         (List.map
            (fun (n, v, u, _) -> (n, J.Obj [ ("value", J.num v); ("unit", J.str u) ]))
            r.metrics)) ]

let header_json wl ~commit ~seed ~seconds ~trace r =
  J.Obj
    [ ("perfbench", J.str "header");
      ("workload", J.str wl.name); ("seed", J.int seed); ("seconds", J.num seconds);
      ("trace", J.Bool trace); ("commit", J.str commit);
      ("nproc", J.int (Domain.recommended_domain_count ())); ("jobs", J.int wl.jobs);
      ("ocaml", J.str Sys.ocaml_version);
      ("build_profile", J.str (if Safara_core.Pass.assertions_enabled then "dev" else "release"));
      ("tail_percentile", J.num (wl.tail *. 100.));
      ("fail_frac", J.num (float_of_int r.failed /. float_of_int (max 1 r.attempted)));
      ("units", J.int (fst r.units)); ("traced_units", J.int (snd r.units));
      ("samples", J.Obj (List.map (fun (n, _, _, k) -> (n, J.int k)) r.metrics));
      ("problems", J.Arr (List.map J.str r.problems)) ]

(* Chrome trace-event JSON: one complete event per span, domain as
   thread id. *)
let trace_json spans =
  let t0 = List.fold_left (fun m (s : Span.t) -> Float.min m s.Span.t0) infinity spans in
  J.Obj
    [ ("traceEvents",
       J.Arr
         (List.map
            (fun (s : Span.t) ->
              J.Obj
                [ ("name", J.str s.Span.name); ("ph", J.str "X");
                  ("ts", J.num ((s.Span.t0 -. t0) *. 1e6));
                  ("dur", J.num (Span.duration s *. 1e6)); ("pid", J.int 1);
                  ("tid", J.int s.Span.domain);
                  ("args",
                   J.Obj [ ("id", J.int s.Span.id); ("parent", J.int s.Span.parent);
                           ("job", J.int s.Span.job) ]) ])
            spans)) ]

let print_table r =
  List.iter
    (fun (n, v, u, k) -> Printf.printf "  %-36s %14.6g %-9s (%d samples)\n" n v u k)
    r.metrics
