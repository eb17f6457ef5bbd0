(* Tests of the benchmark itself, on tiny runs of each workload.

   Usage: test_perfbench.exe SARACCC BENCHMARK_JSON EXPECTED_CHECKSUMS *)

open Perfbench
module Sjson = Safara_serve.Sjson
module Protocol = Safara_serve.Protocol

let saraccc = Sys.argv.(1)
let benchmark_json = Sys.argv.(2)
let expected_path = Sys.argv.(3)
let small = List.map Safara_suites.Registry.find [ "303.ostencil"; "EP" ]

let paper_eval ?(expected_path = expected_path) () =
  { Bench.name = "paper-eval"; tail = 0.5; jobs = Paper_eval.jobs;
    run_unit =
      (fun ~seed:_ ~index:_ ~traced ->
        Paper_eval.run_unit
          { Paper_eval.expected_path;
            experiments = List.filter (fun (n, _) -> n = "table1") Paper_eval.all_experiments;
            workloads = small }
          ~traced) }

let cold_compile () =
  let cfg = Cold_compile.make_config [ List.hd small ] in
  { Bench.name = "cold-compile"; tail = 0.5; jobs = 1; run_unit = Cold_compile.run_unit cfg }

let serve_mix ?(tamper = Fun.id) () =
  let cfg =
    { (Serve_mix.default_config ~saraccc ~run_dir:"_run") with
      Serve_mix.workloads = small; hot_requests = 40; tamper }
  in
  { Bench.name = "serve-mix"; tail = 0.5; jobs = Serve_mix.jobs; run_unit = Serve_mix.run_unit cfg }

(* The shortest run: two units; a traced run makes one of them traced. *)
let run wl ~trace =
  let units = Bench.run_units wl ~seed:7 ~seconds:0.001 ~trace in
  Bench.summarize wl ~trace ~state_file:None units

let declared key =
  let j = Sjson.parse (Util.read_file benchmark_json) in
  List.map
    (fun m -> (Sjson.to_str (Sjson.member "name" m), Sjson.to_str (Sjson.member "unit" m)))
    (Sjson.to_list (Sjson.member key j))

let check_metrics (r : Bench.result) ~key =
  let printed = List.map (fun (n, _, u, _) -> (n, u)) r.Bench.metrics in
  Alcotest.(check (list (pair string string))) ("metrics match " ^ key) (declared key) printed;
  List.iter
    (fun (n, v, _, _) -> if Float.is_nan v then Alcotest.failf "%s is not a number" n)
    r.Bench.metrics

let check_correct (r : Bench.result) =
  if not r.Bench.correct then
    Alcotest.failf "run failed: %s" (String.concat "; " r.Bench.problems);
  Alcotest.(check int) "no failed operations" 0 r.Bench.failed;
  Alcotest.(check bool) "operations attempted" true (r.Bench.attempted > 0)

let check_trace (r : Bench.result) =
  Alcotest.(check bool) "spans recorded" true (r.Bench.spans <> []);
  Alcotest.(check (option string)) "spans balance" None (Span.check_balanced r.Bench.spans);
  Alcotest.(check int) "no span left open" 0 (Span.open_spans ())

let workload_case name make =
  Alcotest.test_case name `Slow (fun () ->
      let wl = make () in
      let untraced = run wl ~trace:false in
      check_correct untraced;
      check_metrics untraced ~key:"end_to_end";
      List.iter
        (fun (n, v, _, _) -> if not (v > 0.) then Alcotest.failf "%s reads %g, not > 0" n v)
        untraced.Bench.metrics;
      let traced = run wl ~trace:true in
      check_correct traced;
      check_metrics traced ~key:"per_layer";
      check_trace traced)

let wrong_checksum () =
  let text = Util.read_file expected_path in
  let bad =
    String.concat "\n"
      (List.map
         (fun l ->
           if String.starts_with ~prefix:"EP " l then
             match String.split_on_char ' ' l with
             | [ id; arr; v ] -> Printf.sprintf "%s %s %h" id arr (float_of_string v +. 1.)
             | _ -> l
           else l)
         (String.split_on_char '\n' text))
  in
  Util.write_file "wrong_checksums.txt" bad;
  let r = run (paper_eval ~expected_path:"wrong_checksums.txt" ()) ~trace:false in
  Alcotest.(check bool) "run is not correct" false r.Bench.correct;
  Alcotest.(check bool) "the EP check failed" true (r.Bench.failed >= 1)

let mangled_reply () =
  let mangle = function
    | Protocol.Result (o, ms) -> Protocol.Result ({ o with Protocol.out = o.Protocol.out ^ " " }, ms)
    | r -> r
  in
  let r = run (serve_mix ~tamper:mangle ()) ~trace:false in
  Alcotest.(check bool) "run is not correct" false r.Bench.correct;
  Alcotest.(check int) "every request failed" r.Bench.attempted r.Bench.failed;
  let ok = { Protocol.out = "listing"; err = ""; code = 0 } in
  let rejected resp =
    match Serve_mix.check_reply ~expected:"listing" resp with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "good reply" false (rejected (Protocol.Result (ok, 1.)));
  Alcotest.(check bool) "changed bytes" true
    (rejected (Protocol.Result ({ ok with Protocol.out = "listinG" }, 1.)));
  Alcotest.(check bool) "non-zero code" true
    (rejected (Protocol.Result ({ ok with Protocol.code = 1 }, 1.)));
  Alcotest.(check bool) "error reply" true (rejected (Protocol.Error "boom"));
  Alcotest.(check bool) "data reply" true (rejected (Protocol.Data Sjson.Null))

let unbalanced_spans () =
  let s id parent t0 t1 =
    { Span.id; name = "s" ^ string_of_int id; parent; job = 0; domain = 0; t0; t1 }
  in
  Alcotest.(check (option string)) "nested" None
    (Span.check_balanced [ s 0 (-1) 0. 2.; s 1 0 0.5 1.; s 2 0 1. 1.5 ]);
  Alcotest.(check bool) "child outlives parent" true
    (Span.check_balanced [ s 0 (-1) 0. 1.; s 1 0 0.5 2. ] <> None);
  Alcotest.(check bool) "child starts before parent" true
    (Span.check_balanced [ s 0 (-1) 1. 2.; s 1 0 0.5 0.8 ] <> None);
  Alcotest.(check bool) "children cover more than the parent" true
    (Span.check_balanced [ s 0 (-1) 0. 1.; s 1 0 0. 0.8; s 2 0 0.2 1. ] <> None);
  Alcotest.(check bool) "parent on another domain" true
    (Span.check_balanced [ s 0 (-1) 0. 2.; { (s 1 0 0.5 1.) with Span.domain = 1 } ] <> None)

let determinism_guard () =
  let unit_with det =
    { Outcome.setup_s = [ 0. ]; wall_s = 0.; ops_ms = []; attempted = 1; failures = [];
      mem_mb = None; det; layers = []; spans = [] }
  in
  let state = "guard_state.det" in
  if Sys.file_exists state then Sys.remove state;
  Alcotest.(check (list string)) "first run records" []
    (Bench.guard ~state_file:(Some state) [ unit_with [ ("x", 1.5) ] ]);
  Alcotest.(check (list string)) "repeat agrees" []
    (Bench.guard ~state_file:(Some state) [ unit_with [ ("x", 1.5) ] ]);
  Alcotest.(check bool) "later run differs" true
    (Bench.guard ~state_file:(Some state) [ unit_with [ ("x", 1.25) ] ] <> []);
  Alcotest.(check bool) "units of one run differ" true
    (Bench.guard ~state_file:None [ unit_with [ ("y", 1.) ]; unit_with [ ("y", 2.) ] ] <> [])

let () =
  Alcotest.run ~argv:[| Sys.argv.(0) |] "perfbench"
    [ ("workloads",
       [ workload_case "paper-eval" (fun () -> paper_eval ());
         workload_case "cold-compile" cold_compile;
         workload_case "serve-mix" (fun () -> serve_mix ()) ]);
      ("checks",
       [ Alcotest.test_case "wrong expected checksum" `Quick wrong_checksum;
         Alcotest.test_case "mangled serve reply" `Quick mangled_reply;
         Alcotest.test_case "unbalanced spans" `Quick unbalanced_spans;
         Alcotest.test_case "determinism guard" `Quick determinism_guard ]) ]
