(* cold-compile: what one `saraccc compile` invocation pays, request
   after request.

   A unit is one round over every key (source × profile × arch) in an
   order drawn from the seed. Each request is [Commands.compile] on a
   fresh single-job engine, with the VIR verifier on, so no cache and
   no simulation take part. The traced run drives the same work one
   layer call at a time: the front end, then each pass of the
   profile's pipeline with [Pass.verify] and [Pass.measure] where
   [Pipeline.run] calls them, then the listing [Commands.compile]
   prints. Both paths must print the same bytes for a key, in every
   round. *)

module C = Safara_core.Compiler
module Pass = Safara_core.Pass
module Pipeline = Safara_core.Pipeline
module Eval = Safara_suites.Eval
module Workload = Safara_suites.Workload
module Protocol = Safara_serve.Protocol
module Commands = Safara_serve.Commands

let profiles = [ "base"; "safara"; "small"; "clauses"; "full"; "pgi" ]

(* Every pass any profile's pipeline runs, in pipeline order: the
   names of the per-pass metrics. *)
let pass_names =
  List.fold_left
    (fun acc n -> if List.mem n acc then acc else acc @ [ n ])
    []
    (List.concat_map
       (fun p -> Pipeline.pass_names (C.desc_of_profile (Commands.profile_of p)))
       ("full" :: profiles))

type config = {
  keys : Protocol.compile_req array;  (** in registry order *)
  warmup : Protocol.compile_req list;
  outputs : (string, Digest.t) Hashtbl.t;
      (** per key, the digest of its first listing: later rounds and
          the traced path must reproduce it *)
}

let request ~src ~name ~arch ~profile =
  { Protocol.cr_name = name; cr_src = src; cr_arch = arch; cr_profile = profile;
    cr_quiet = false; cr_maxrreg = None; cr_pressure = false; cr_time_passes = false;
    cr_json = false; cr_dumps = []; cr_annotate_live = false; cr_disable = [] }

let key_name (r : Protocol.compile_req) =
  Printf.sprintf "%s/%s/%s" r.Protocol.cr_name r.Protocol.cr_profile r.Protocol.cr_arch

let all_keys workloads =
  List.concat_map
    (fun (w : Workload.t) ->
      List.concat_map
        (fun profile ->
          List.map
            (fun arch -> request ~src:w.Workload.source ~name:w.Workload.id ~arch ~profile)
            Safara_gpu.Arch.names)
        profiles)
    workloads

let make_config workloads =
  { keys = Array.of_list (all_keys workloads);
    warmup =
      List.map
        (fun (w : Workload.t) ->
          request ~src:w.Workload.source ~name:w.Workload.id ~arch:"kepler" ~profile:"base")
        workloads;
    outputs = Hashtbl.create 512 }

let default_config () = make_config Safara_suites.Registry.all

(* The untraced request: exactly one CLI compile. *)
let compile_cold req =
  let eng = Eval.create ~jobs:1 () in
  Fun.protect ~finally:(fun () -> Eval.shutdown eng) (fun () -> Commands.compile eng req)

(* Per-pass sizes and SAFARA decisions summed over a round's traced
   requests. *)
type acc = {
  instrs : (string, int) Hashtbl.t;
  mutable rounds : int;
  mutable applied : int;
  mutable skipped : int;
}

(* The traced request: the same work as [compile_cold], one public
   layer call per span. *)
let compile_traced acc (req : Protocol.compile_req) =
  let arch = Commands.arch_of req.Protocol.cr_arch in
  let profile = Commands.profile_of req.Protocol.cr_profile in
  let prog =
    Span.with_ ~name:"lang.frontend" (fun () -> Safara_lang.Frontend.compile req.Protocol.cr_src)
  in
  let desc = C.desc_of_profile profile in
  let ctx =
    Pass.make_ctx ~arch:(Pipeline.effective_arch arch desc)
      ~latency:(Safara_gpu.Latency.for_arch arch)
  in
  let verify = Pipeline.default_options.Pipeline.o_verify in
  let measure stage v =
    Span.with_ ~name:"core.measure" (fun () -> Pass.measure ~precise:false stage v)
  in
  let rec go : type a b. (a, b) Pipeline.seq -> a -> bool -> b =
   fun s v measured ->
    match s with
    | Pipeline.Done -> v
    | Pipeline.Step (p, rest) ->
        if not measured then ignore (measure p.Pass.input v);
        let v' = Span.with_ ~name:("core.pass." ^ p.Pass.name) (fun () -> p.Pass.run ctx v) in
        if verify then Span.with_ ~name:"core.verify" (fun () -> Pass.verify p.Pass.output v');
        let after = measure p.Pass.output v' in
        (* IR-stage values have no instructions yet: count statements *)
        let size =
          if Pass.stage_name p.Pass.output = "ir" then after.Pass.s_stmts else after.Pass.s_instrs
        in
        Hashtbl.replace acc.instrs p.Pass.name
          (size + Option.value (Hashtbl.find_opt acc.instrs p.Pass.name) ~default:0);
        go rest v' true
  in
  let final = go (Pipeline.build desc) prog false in
  let kernels = final.Pass.a_kernels in
  List.iter
    (fun (_, rounds) ->
      List.iter
        (fun (r : Safara_transform.Safara.round) ->
          acc.rounds <- acc.rounds + 1;
          acc.applied <- acc.applied + List.length r.Safara_transform.Safara.applied;
          acc.skipped <- acc.skipped + r.Safara_transform.Safara.skipped)
        rounds)
    ctx.Pass.logs;
  if !Eval.verify_kernels then
    Span.with_ ~name:"core.verify" (fun () ->
        List.iter (fun (k, _) -> Safara_vir.Verify.verify_exn k) kernels);
  (* left unspanned, as the rest of a CLI compile: the engine's cache
     key and the printed listing *)
  ignore
    (Digest.string
       (Marshal.to_string
          ( req.Protocol.cr_src, profile, arch,
            (None : Safara_transform.Safara.config option), (None : int option),
            ([] : string list), C.pipeline_signature ~disable:[] profile )
          []));
  let b = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer b in
  List.iter
    (fun (k, report) ->
      Format.fprintf fmt "%a@." Safara_vir.Kernel.pp k;
      Format.fprintf fmt "%a@.@." Safara_ptxas.Assemble.pp_report report)
    kernels;
  Format.pp_print_flush fmt ();
  { Protocol.out = Buffer.contents b; err = ""; code = 0 }

(* A digest as an exact float, so it can sit beside the other
   deterministic values. *)
let digest_value d =
  let h = Digest.to_hex d in
  float_of_int (int_of_string ("0x" ^ String.sub h 0 12))

let run_unit cfg ~seed ~index ~traced : Outcome.t =
  Eval.verify_kernels := true;
  let order, setup_s =
    Outcome.repeat_setup ~reps:3 ~discard:ignore (fun () ->
        let order = Util.shuffle (Util.rng ~seed ("order", index)) cfg.keys in
        List.iter (fun r -> ignore (compile_cold r)) cfg.warmup;
        order)
  in
  let tally = Outcome.tally () in
  let acc = { instrs = Hashtbl.create 16; rounds = 0; applied = 0; skipped = 0 } in
  let ops = ref [] in
  let (), wall =
    Util.time (fun () ->
        Span.with_ ~name:"unit" (fun () ->
            Array.iteri
              (fun i req ->
                let t0 = Unix.gettimeofday () in
                Outcome.op tally ~what:(key_name req) (fun () ->
                    let o =
                      Span.with_ ~job:i ~name:"request" (fun () ->
                          if traced then compile_traced acc req else compile_cold req)
                    in
                    if o.Protocol.code <> 0 || o.Protocol.out = "" then
                      Outcome.fail tally
                        (Printf.sprintf "%s: code %d, %d output bytes" (key_name req)
                           o.Protocol.code (String.length o.Protocol.out))
                    else
                      let d = Digest.string o.Protocol.out in
                      match Hashtbl.find_opt cfg.outputs (key_name req) with
                      | None -> Hashtbl.replace cfg.outputs (key_name req) d
                      | Some d0 when Digest.equal d d0 -> ()
                      | Some _ ->
                          Outcome.fail tally (key_name req ^ ": listing differs from an earlier compile"));
                ops := ((Unix.gettimeofday () -. t0) *. 1000.) :: !ops)
              order))
  in
  let spans = Span.collect () in
  let combined =
    Digest.string
      (String.concat ""
         (List.sort compare
            (Hashtbl.fold (fun k d l -> (k ^ Digest.to_hex d) :: l) cfg.outputs [])))
  in
  let det_common = [ ("digest.listings", digest_value combined) ] in
  let h = Outcome.self_by_name spans in
  let counts =
    List.map
      (fun n ->
        ( "core.pass." ^ n ^ ".instrs",
          float_of_int (Option.value (Hashtbl.find_opt acc.instrs n) ~default:0) ))
      pass_names
    @ [ ("transform.safara.rounds", float_of_int acc.rounds);
        ("transform.safara.applied", float_of_int acc.applied);
        ("transform.safara.skipped", float_of_int acc.skipped) ]
  in
  let layers =
    if not traced then []
    else
      [ ("lang.frontend_s", Outcome.self_of h "lang.frontend");
        ("core.verify_s", Outcome.self_of h "core.verify");
        ("core.measure_s", Outcome.self_of h "core.measure");
        ("core.unattributed_s", Outcome.self_of h "request");
        ("transform.safara.s_per_round",
         Outcome.self_of h "core.pass.safara" /. float_of_int (max 1 acc.rounds));
        ("trace.unattributed_s", Outcome.self_of h "request" +. Outcome.self_of h "unit") ]
      @ List.map (fun n -> ("core.pass." ^ n ^ "_s", Outcome.self_of h ("core.pass." ^ n))) pass_names
  in
  { Outcome.setup_s; wall_s = wall; ops_ms = List.rev !ops;
    attempted = tally.Outcome.attempted; failures = List.rev tally.Outcome.failures;
    mem_mb = None; det = (det_common @ if traced then counts else []); layers; spans }
