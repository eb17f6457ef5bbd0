(* perfbench: the repository's benchmark. See BENCHMARK.md.

   main.exe run --workload NAME --seed N --seconds S --trace 0|1
                --saraccc PATH [--commit C]
   main.exe expected [--write]

   Run from the repository root: inputs and outputs live under
   perfbench/. *)

open Perfbench

let expected_path = "perfbench/expected/checksums.txt"

let workload name ~saraccc =
  match name with
  | "paper-eval" ->
      let cfg = Paper_eval.default_config ~expected_path in
      { Bench.name; tail = 0.5; jobs = Paper_eval.jobs; run_unit = (fun ~seed:_ ~index:_ ~traced -> Paper_eval.run_unit cfg ~traced) }
  | "cold-compile" ->
      let cfg = Cold_compile.default_config () in
      { Bench.name; tail = 0.98; jobs = 1; run_unit = Cold_compile.run_unit cfg }
  | "serve-mix" ->
      let cfg = Serve_mix.default_config ~saraccc ~run_dir:"perfbench/_run" in
      { Bench.name; tail = 0.99; jobs = Serve_mix.jobs; run_unit = Serve_mix.run_unit cfg }
  | other -> failwith ("unknown workload " ^ other ^ " (paper-eval|cold-compile|serve-mix)")

let run args =
  let wl = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) in
  let saraccc = ref "" and commit = ref "unknown" in
  Arg.parse_argv ~current:(ref 0) args
    [ ("--workload", Arg.Set_string wl, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--saraccc", Arg.Set_string saraccc, "PATH to the saraccc binary");
      ("--commit", Arg.Set_string commit, "the commit being measured") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe run ...";
  if !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1) || !saraccc = "" then
    failwith "run needs --workload, --seed >= 0, --seconds > 0, --trace 0|1 and --saraccc";
  let w = workload !wl ~saraccc:!saraccc in
  let trace = !trace = 1 in
  let state_file =
    Printf.sprintf "perfbench/_state/%s-%s.det" w.Bench.name
      (Digest.to_hex (Digest.file Sys.executable_name))
  in
  let units = Bench.run_units w ~seed:!seed ~seconds:!seconds ~trace in
  let r = Bench.summarize w ~trace ~state_file:(Some state_file) units in
  if trace then begin
    Util.mkdir_p "perfbench/_out";
    Util.write_file
      (Printf.sprintf "perfbench/_out/trace-%s-seed%d.json" w.Bench.name !seed)
      (Safara_serve.Sjson.to_string (Bench.trace_json r.Bench.spans))
  end;
  List.iter (fun p -> prerr_endline ("perfbench: " ^ p)) r.Bench.problems;
  Printf.printf "perfbench %s (seed %d, %s)\n" w.Bench.name !seed
    (if trace then "traced" else "untraced");
  Bench.print_table r;
  print_endline
    (Safara_serve.Sjson.to_string
       (Bench.header_json w ~commit:!commit ~seed:!seed
          ~seconds:!seconds ~trace r));
  print_endline (Safara_serve.Sjson.to_string (Bench.result_json r))

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let argv = Sys.argv in
  match Array.to_list argv with
  | _ :: "run" :: _ -> run (Array.sub argv 1 (Array.length argv - 1))
  | [ _; "expected" ] -> ignore (Expected.regenerate ~write:false expected_path)
  | [ _; "expected"; "--write" ] -> ignore (Expected.regenerate ~write:true expected_path)
  | _ ->
      prerr_endline "usage: main.exe run ... | main.exe expected [--write]";
      exit 2
