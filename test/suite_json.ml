(* The shared JSON implementation (Safara_serve.Sjson) and the outputs
   built on it: the parser's RFC 8259 strictness, the printer's
   shortest round-tripping numbers, parse-after-print and
   garbage-in properties, every committed BENCH_*.json, and the
   field-exact shape of the check/compile/tune JSON renderings. *)

module J = Safara_serve.Sjson
module Commands = Safara_serve.Commands
module Q = QCheck

let parses_to input want () =
  Alcotest.(check bool) "parsed value" true (J.parse input = want)

let rejects input () =
  match J.parse input with
  | v -> Alcotest.failf "accepted %S as %s" input (J.to_string v)
  | exception J.Parse_error _ -> ()

(* inputs the parser once got wrong, each with the correct verdict *)
let strictness_cases =
  [ ("\\u with underscores", {|"\u1_2_"|}, None);
    ("\\u with 2 digits", {|"\u12"|}, None);
    ("leading plus", "+1", None);
    ("leading zero", "01", None);
    ("leading zero in array", "[01]", None);
    ("empty fraction", "1.", None);
    ("bare minus", "-", None);
    ("no integer part", ".5", None);
    ("empty exponent", "1e", None);
    ("surrogate pair to UTF-8", {|"\ud83d\ude00"|}, Some (J.Str "\xF0\x9F\x98\x80"));
    ("lone high surrogate", {|"\ud83d"|}, None);
    ("lone low surrogate", {|"\ude00"|}, None);
    ("high surrogate then byte", {|"\ud83dx"|}, None);
    ("high surrogate then BMP", {|"\ud83d\u0041"|}, None);
    ("raw control character", "\"a\nb\"", None);
    ("600-deep nesting", String.make 600 '[' ^ String.make 600 ']', None);
    (* still accepted *)
    ("BMP escapes", {|"\u00e9\u0000"|}, Some (J.Str "\xC3\xA9\x00"));
    ("negative zero", "-0", Some (J.Num (-0.)));
    ("number forms", "[0.5,-1.5e-3,1E+2,10]",
     Some (J.Arr [ J.Num 0.5; J.Num (-1.5e-3); J.Num 100.; J.Num 10. ])) ]

let strictness_tests =
  List.map
    (fun (label, input, want) ->
      Alcotest.test_case
        ((match want with None -> "parse rejects " | Some _ -> "parse accepts ")
        ^ label)
        `Quick
        (match want with None -> rejects input | Some v -> parses_to input v))
    strictness_cases

let test_number_printing () =
  List.iter
    (fun (f, want) ->
      Alcotest.(check string) (Printf.sprintf "%h" f) want (J.to_string (J.Num f)))
    [ (0.1, "0.1"); (1.5, "1.5"); (3., "3"); (-0.25, "-0.25"); (1e300, "1e+300");
      (1. /. 3., "0.3333333333333333"); (0.1 +. 0.2, "0.30000000000000004");
      (Float.nan, "null"); (Float.infinity, "null") ]

(* --- properties -------------------------------------------------------- *)

let gen_value =
  let open Q.Gen in
  let finite =
    oneof
      [ map float_of_int int; float_range (-1e6) 1e6;
        map (fun f -> if Float.is_finite f then f else 0.) float ]
  in
  let bytes = string_size ~gen:char (int_bound 12) in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [ return J.Null; map (fun b -> J.Bool b) bool;
               map (fun f -> J.Num f) finite; map (fun s -> J.Str s) bytes ]
         in
         if n <= 0 then leaf
         else
           frequency
             [ (2, leaf);
               (1, map (fun l -> J.Arr l) (list_size (int_bound 4) (self (n / 4))));
               (1,
                map
                  (fun l -> J.Obj l)
                  (list_size (int_bound 4) (pair bytes (self (n / 4))))) ])

let arb_value = Q.make ~print:J.to_string gen_value

let prop_roundtrip =
  Q.Test.make ~count:500 ~name:"sjson: parse (to_string v) = v" arb_value
    (fun v -> J.parse (J.to_string v) = v)

let only_parse_error s =
  match J.parse s with _ -> true | exception J.Parse_error _ -> true

let prop_garbage =
  Q.Test.make ~count:1000 ~name:"sjson: random bytes raise only Parse_error"
    Q.(string_gen Gen.char)
    only_parse_error

let prop_truncated =
  Q.Test.make ~count:500 ~name:"sjson: truncated output raises only Parse_error"
    Q.(pair arb_value (float_bound_inclusive 1.))
    (fun (v, frac) ->
      let s = J.to_string v in
      only_parse_error
        (String.sub s 0 (int_of_float (frac *. float_of_int (String.length s)))))

(* --- committed files --------------------------------------------------- *)

let source_root () =
  Option.value (Sys.getenv_opt "DUNE_SOURCEROOT") ~default:(Sys.getcwd ())

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_committed_files () =
  let root = source_root () in
  let files =
    "BENCHMARK.json"
    :: List.filter
         (fun f ->
           String.starts_with ~prefix:"BENCH_" f
           && Filename.check_suffix f ".json")
         (Array.to_list (Sys.readdir root))
  in
  Alcotest.(check bool) "BENCH snapshots found" true (List.length files >= 5);
  List.iter
    (fun f ->
      match J.parse (read_file (Filename.concat root f)) with
      | J.Obj (_ :: _) -> ()
      | _ -> Alcotest.failf "%s: not a non-empty object" f
      | exception J.Parse_error e -> Alcotest.failf "%s: %s" f e)
    files

(* --- command outputs --------------------------------------------------- *)

let keys = function J.Obj kvs -> List.map fst kvs | _ -> []

let test_check_json () =
  let o =
    Commands.check
      { Safara_serve.Protocol.ck_name = ""; ck_src = None; ck_workloads = true;
        ck_json = true; ck_werror = false; ck_codes = []; ck_pressure = true;
        ck_arch = "kepler"; ck_profile = "full" }
  in
  let ds = J.to_list (J.parse o.Safara_serve.Protocol.out) in
  Alcotest.(check bool) "some diagnostics" true (ds <> []);
  List.iter
    (fun d ->
      let ks = keys d in
      let positioned = List.mem "file" ks in
      Alcotest.(check (list string))
        "field names"
        ([ "code"; "severity" ]
        @ (if positioned then [ "file"; "line"; "col" ] else [])
        @ [ "where"; "message" ]
        @ if List.mem "hint" ks then [ "hint" ] else [])
        ks;
      let code = J.to_str (J.member "code" d) in
      Alcotest.(check bool) ("code " ^ code) true
        (String.length code = 6 && String.starts_with ~prefix:"SAF" code);
      Alcotest.(check bool) "severity" true
        (List.mem (J.to_str (J.member "severity" d)) [ "error"; "warning"; "note" ]);
      if positioned then
        Alcotest.(check bool) "line >= 1" true (J.to_int (J.member "line" d) >= 1))
    ds;
  Alcotest.(check bool) "SAF036 pressure notes" true
    (List.exists (fun d -> J.to_str (J.member "code" d) = "SAF036") ds)

let test_compile_json () =
  let w = Safara_suites.Registry.find "303.ostencil" in
  let eng = Safara_suites.Eval.create ~jobs:1 () in
  let o =
    Fun.protect ~finally:(fun () -> Safara_suites.Eval.shutdown eng) (fun () ->
        Commands.compile eng
          { Safara_serve.Protocol.cr_name = w.Safara_suites.Workload.id;
            cr_src = w.Safara_suites.Workload.source; cr_arch = "kepler";
            cr_profile = "full"; cr_quiet = false; cr_maxrreg = None;
            cr_pressure = false; cr_time_passes = true; cr_json = true;
            cr_dumps = []; cr_annotate_live = false; cr_disable = [ "dce" ] })
  in
  let j = J.parse o.Safara_serve.Protocol.out in
  Alcotest.(check (list string)) "top level" [ "pipeline"; "passes" ] (keys j);
  Alcotest.(check string) "pipeline" "full" (J.to_str (J.member "pipeline" j));
  let passes = J.to_list (J.member "passes" j) in
  Alcotest.(check (list string))
    "pass names"
    (Safara_core.Pipeline.pass_names
       (Safara_core.Compiler.desc_of_profile Safara_core.Compiler.Full))
    (List.map (fun p -> J.to_str (J.member "name" p)) passes);
  List.iter
    (fun p ->
      let name = J.to_str (J.member "name" p) in
      Alcotest.(check (list string))
        (name ^ " fields")
        [ "name"; "stage"; "seconds"; "disabled"; "before"; "after" ]
        (keys p);
      Alcotest.(check bool) (name ^ " stage") true
        (List.mem (J.to_str (J.member "stage" p)) [ "ir"; "vir"; "asm" ]);
      Alcotest.(check bool) (name ^ " seconds > 0") true
        (J.to_float (J.member "seconds" p) > 0.);
      Alcotest.(check bool) (name ^ " disabled") (name = "dce")
        (J.member "disabled" p = J.Bool true);
      List.iter
        (fun side ->
          Alcotest.(check (list string))
            (name ^ " " ^ side)
            [ "units"; "stmts"; "instrs"; "vregs"; "regs" ]
            (keys (J.member side p)))
        [ "before"; "after" ])
    passes;
  let last = List.nth passes (List.length passes - 1) in
  Alcotest.(check bool) "assembly allocates registers" true
    (J.to_int (J.member "regs" (J.member "after" last)) > 0)

let test_tune_json () =
  let r =
    { Safara_tune.Tune.tr_id = "w\"1"; tr_arch = "kepler"; tr_strategy = "grid";
      tr_best = { Safara_tune.Tune.pt_config = "cap48"; pt_unroll = 2 };
      tr_best_ms = 0.1; tr_default_ms = 0.30000000000000004;
      tr_improvement = Float.nan; tr_evaluated = 15; tr_space = 15;
      tr_kernels = [ ("k", 0.1) ] }
  in
  Alcotest.(check bool)
    "exact value" true
    (J.parse (J.to_string (Commands.tune_json ~extra:[ ("sim_hits", J.int 3) ] r))
    = J.Obj
        [ ("id", J.Str "w\"1"); ("arch", J.Str "kepler"); ("strategy", J.Str "grid");
          ("best", J.Obj [ ("config", J.Str "cap48"); ("unroll", J.Num 2.) ]);
          ("best_ms", J.Num 0.1); ("default_ms", J.Num 0.30000000000000004);
          ("improvement", J.Null); ("evaluated", J.Num 15.); ("space", J.Num 15.);
          ("sim_hits", J.Num 3.) ])

let suite =
  strictness_tests
  @ [ Alcotest.test_case "print shortest round-trip numbers" `Quick
        test_number_printing;
      Alcotest.test_case "committed BENCH files parse" `Quick test_committed_files;
      Alcotest.test_case "check --workloads --pressure --json" `Quick test_check_json;
      Alcotest.test_case "compile --time-passes --json" `Quick test_compile_json;
      Alcotest.test_case "tune_json exact fields" `Quick test_tune_json ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_roundtrip; prop_garbage; prop_truncated ]
