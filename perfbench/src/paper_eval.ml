(* paper-eval: regenerate the paper's evaluation on a fresh engine, then
   check every workload's functional output.

   A unit computes every table and figure that `bench json` emits on a
   new [Eval] engine with no store, then runs each registry workload
   functionally under [Full] on Kepler (block-parallel on the same
   pool) and compares its checksums with the committed expected
   values. The user waits for the whole evaluation, so the unit is also
   the workload's one operation. The seed is recorded but unused: the
   inputs are the registry's fixed programs and data. *)

module C = Safara_core.Compiler
module Eval = Safara_suites.Eval
module Experiments = Safara_suites.Experiments
module Workload = Safara_suites.Workload
module Launch = Safara_sim.Launch
module Interp = Safara_sim.Interp

(* the engine's pool size, sized for a 2-core host *)
let jobs = 2

type config = {
  expected_path : string;
  experiments : (string * (Eval.t -> unit)) list;
  workloads : Workload.t list;
}

let kepler = Safara_gpu.Arch.of_name "kepler"

let all_experiments =
  let arch = kepler in
  [ ("table1", fun eng -> ignore (Experiments.table1 ~eng ~arch ()));
    ("table2", fun eng -> ignore (Experiments.table2 ~eng ~arch ()));
    ("offsets", fun eng -> ignore (Experiments.offsets ~eng ~arch ()));
    ("fig7", fun eng -> ignore (Experiments.fig7 ~eng ~arch ()));
    ("fig9", fun eng -> ignore (Experiments.fig9 ~eng ~arch ()));
    ("fig10", fun eng -> ignore (Experiments.fig10 ~eng ~arch ()));
    ("fig11", fun eng -> ignore (Experiments.fig11 ~eng ~arch ()));
    ("fig12", fun eng -> ignore (Experiments.fig12 ~eng ~arch ()));
    ("ablations", fun eng -> ignore (Experiments.ablations ~eng ~arch ()));
    ("crossarch", fun eng -> ignore (Experiments.crossarch ~eng ()));
    ("unroll_study", fun eng -> ignore (Experiments.unroll_study ~eng ~arch ())) ]

let default_config ~expected_path =
  { expected_path; experiments = all_experiments;
    workloads = Safara_suites.Registry.all }

let full_job w = Eval.job ~arch:kepler C.Full w

(* Values of the generated code that must repeat exactly: all read
   from the engine's caches after the timed part. *)
let deterministic eng workloads =
  let jobs = List.map full_job workloads in
  let compiled = List.map (Eval.compiled eng) jobs in
  let times = List.map (Eval.time_job eng) jobs in
  let reports = List.concat_map (fun c -> List.map snd c.C.c_kernels) compiled in
  let rounds = List.concat_map (fun c -> List.concat_map snd c.C.c_logs) compiled in
  let kts = List.concat_map (fun (t : Launch.program_time) -> t.Launch.ptk) times in
  let isum f l = float_of_int (List.fold_left (fun acc x -> acc + f x) 0 l) in
  let module A = Safara_ptxas.Assemble in
  let module S = Safara_transform.Safara in
  [ ("sim.ms_geomean", Util.geomean (List.map (fun t -> t.Launch.total_ms) times));
    ("ptxas.regs_sum", isum (fun r -> r.A.regs_used) reports);
    ("ptxas.spill_bytes_sum", isum (fun r -> r.A.spill_bytes) reports);
    ("ptxas.instrs_sum", isum (fun r -> r.A.instructions) reports);
    ("transform.safara.rounds", float_of_int (List.length rounds));
    ("transform.safara.applied", isum (fun r -> List.length r.S.applied) rounds);
    ("transform.safara.skipped", isum (fun r -> r.S.skipped) rounds);
    ("sim.timing_warp_instrs", isum (fun k -> k.Launch.kt_instructions) kts);
    ("sim.transactions", isum (fun k -> k.Launch.kt_transactions) kts) ]

let engine_layers eng ~wall =
  let s = Eval.stats eng in
  let busy = s.Eval.st_compile_s +. s.Eval.st_sim_s in
  [ ("engine.compile_hits", float_of_int s.Eval.st_compile_hits);
    ("engine.compile_misses", float_of_int s.Eval.st_compile_misses);
    ("engine.sim_hits", float_of_int s.Eval.st_sim_hits);
    ("engine.sim_misses", float_of_int s.Eval.st_sim_misses);
    ("engine.compile_phase_s", s.Eval.st_compile_s);
    ("engine.sim_phase_s", s.Eval.st_sim_s);
    ("engine.pool_idle_s", (float_of_int s.Eval.st_jobs *. wall) -. busy) ]

(* The simulator's layers, driven one call at a time after the timed
   part of a traced unit: input preparation, the timing model, and the
   functional interpreter per kernel launch (named by how it ran). *)
let sim_probe eng expected tally workloads =
  let warp = ref 0 and txn = ref 0 and occ = ref [] in
  let cnt = Interp.fresh_counters () in
  let par = ref 0 and ser = ref 0 in
  let pool = if Eval.jobs eng > 1 then Some (Eval.pool eng) else None in
  Span.with_ ~name:"probe" (fun () ->
      List.iteri
        (fun i (w : Workload.t) ->
          Outcome.op tally ~what:("sim probe " ^ w.Workload.id) (fun () ->
              Span.with_ ~job:i ~name:"probe.workload" (fun () ->
                  let c = Eval.compiled eng (full_job w) in
                  let env = Span.with_ ~name:"sim.prepare" (fun () -> Workload.prepare c w) in
                  let t = Span.with_ ~name:"sim.timing" (fun () -> C.time c env) in
                  List.iter
                    (fun k ->
                      warp := !warp + k.Launch.kt_instructions;
                      txn := !txn + k.Launch.kt_transactions;
                      occ := k.Launch.kt_occupancy :: !occ)
                    t.Launch.ptk;
                  let env = Span.with_ ~name:"sim.prepare" (fun () -> Workload.prepare c w) in
                  List.iter
                    (fun (k, _) ->
                      let grid = Launch.grid_of ~env:env.Interp.scalars k in
                      let mode =
                        Span.with_ ~name:"sim.interp"
                          ~rename:(function
                            | Interp.Parallel _ -> "sim.blockpar" | Interp.Sequential _ -> "sim.interp")
                          (fun () ->
                            Interp.run_kernel_m ~counters:cnt ?pool ~prog:c.C.c_prog ~env ~grid k)
                      in
                      match mode with Interp.Parallel _ -> incr par | Interp.Sequential _ -> incr ser)
                    c.C.c_kernels;
                  let sums =
                    List.map
                      (fun a -> (a, Safara_sim.Memory.checksum env.Interp.mem a))
                      w.Workload.check_arrays
                  in
                  Option.iter (Outcome.fail tally)
                    (Expected.mismatch expected ~id:w.Workload.id sums))))
        workloads);
  let spans = Span.collect () in
  let h = Outcome.self_by_name spans in
  let timing_s = Outcome.self_of h "sim.timing" in
  let interp_s = Outcome.self_of h "sim.interp" and blockpar_s = Outcome.self_of h "sim.blockpar" in
  let thread_instrs = float_of_int cnt.Interp.c_instructions in
  ( [ ("sim.prepare_s", Outcome.self_of h "sim.prepare");
      ("sim.timing_s", timing_s);
      ("sim.timing_minstr_per_s", float_of_int !warp /. timing_s /. 1e6);
      ("sim.occupancy_mean", Util.sum !occ /. float_of_int (max 1 (List.length !occ)));
      ("sim.interp_s", interp_s);
      ("sim.blockpar_s", blockpar_s);
      ("sim.interp_thread_instrs", thread_instrs);
      ("sim.interp_minstr_per_s", thread_instrs /. (interp_s +. blockpar_s) /. 1e6);
      ("sim.parallel_kernels", float_of_int !par);
      ("sim.serial_kernels", float_of_int !ser) ],
    [ ("sim.timing_warp_instrs", float_of_int !warp); ("sim.transactions", float_of_int !txn) ],
    spans )

let run_unit cfg ~traced : Outcome.t =
  let (expected, eng), setup_s =
    Outcome.repeat_setup ~reps:5
      ~discard:(fun (_, eng) -> Eval.shutdown eng)
      (fun () ->
        (* every input program must parse and type-check before the
           timed part, so a broken input fails here, not mid-figure *)
        List.iter
          (fun (w : Workload.t) -> ignore (Safara_lang.Frontend.compile w.Workload.source))
          cfg.workloads;
        (Expected.load cfg.expected_path, Eval.create ~jobs ()))
  in
  let tally = Outcome.tally () in
  let (), wall =
    Util.time (fun () ->
        Span.with_ ~name:"unit" (fun () ->
            List.iteri
              (fun i (name, f) ->
                Outcome.op tally ~what:name (fun () ->
                    Span.with_ ~job:i ~name:("suites.experiments." ^ name) (fun () -> f eng)))
              cfg.experiments;
            (* the checks are pool jobs, as the figures' jobs are: two
               domains busy on two cores, each check fanning its
               block-parallel kernels out from inside its job *)
            let base = List.length cfg.experiments in
            Span.with_ ~name:"suites.checks" (fun () ->
                Safara_engine.Pool.iter (Eval.pool eng)
                  (fun (i, (w : Workload.t)) ->
                    Outcome.op tally ~what:("check " ^ w.Workload.id) (fun () ->
                        let r =
                          Span.with_ ~job:(base + i) ~name:"suites.eval.simulate" (fun () ->
                              Eval.simulate eng (full_job w))
                        in
                        Option.iter (Outcome.fail tally)
                          (Expected.mismatch expected ~id:w.Workload.id r.Eval.sr_checksums)))
                  (List.mapi (fun i w -> (i, w)) cfg.workloads))))
  in
  let spans = Span.collect () in
  (* what the engine holds once the evaluation is done: its caches.
     The process's peak RSS swings by a third from run to run with the
     two domains' GC pacing; the retained heap does not. *)
  Gc.full_major ();
  let retained_mb = float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1048576. in
  let engine = engine_layers eng ~wall in
  let det = deterministic eng cfg.workloads in
  let probe_layers, probe_det, probe_spans =
    if traced then sim_probe eng expected tally cfg.workloads else ([], [], [])
  in
  Eval.shutdown eng;
  let h = Outcome.self_by_name spans and hp = Outcome.self_by_name probe_spans in
  let layers =
    if not traced then []
    else
      engine @ probe_layers
      @ [ ("suites.experiments_s", Outcome.self_with_prefix h "suites.experiments.");
          ("suites.simulate_s", Outcome.self_of h "suites.eval.simulate");
          (* the self time of every span no layer claims: on the unit's
             domain, the time outside the figures and its own checks
             (waiting in the pool for the other domain's checks among
             it), plus the probe's own bookkeeping *)
          ("trace.unattributed_s",
           Outcome.self_of h "unit" +. Outcome.self_of h "suites.checks"
           +. Outcome.self_of hp "probe" +. Outcome.self_of hp "probe.workload") ]
  in
  { Outcome.setup_s; wall_s = wall; ops_ms = [ wall *. 1000. ];
    attempted = tally.Outcome.attempted; failures = List.rev tally.Outcome.failures;
    mem_mb = Some retained_mb; det = det @ probe_det; layers; spans = spans @ probe_spans }
