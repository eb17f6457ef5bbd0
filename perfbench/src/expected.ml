(* Expected functional checksums for paper-eval.

   One line per workload array: "<id> <array> <checksum>", the checksum
   as an OCaml hex float so it round-trips bit for bit. The committed
   values come from the boxed [Reference] engine on the [Base] profile,
   an independent path from the [Full] / threaded / block-parallel one
   that the benchmark checks. *)

module Workload = Safara_suites.Workload

type t = (string * (string * float) list) list

let parse text : t =
  let rows =
    List.filter_map
      (fun line ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' then None
        else
          match String.split_on_char ' ' line |> List.filter (( <> ) "") with
          | [ id; arr; v ] -> (
              match float_of_string_opt v with
              | Some f -> Some (id, (arr, f))
              | None -> failwith ("expected checksums: bad value in line: " ^ line))
          | _ -> failwith ("expected checksums: bad line: " ^ line))
      (String.split_on_char '\n' text)
  in
  let ids = List.sort_uniq compare (List.map fst rows) in
  List.map (fun id -> (id, List.filter_map (fun (i, c) -> if i = id then Some c else None) rows)) ids

let load path = parse (Util.read_file path)

let render (t : t) =
  let b = Buffer.create 2048 in
  Buffer.add_string b
    "# Functional checksums of every registry workload: Reference engine, Base\n\
     # profile. Regenerate with: python3 perfbench/run.py --regenerate-expected\n";
  List.iter
    (fun (id, arrays) ->
      List.iter (fun (a, v) -> Printf.bprintf b "%s %s %h\n" id a v) arrays)
    t;
  Buffer.contents b

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* [None] when [got] matches the expected checksums of workload [id]. *)
let mismatch (t : t) ~id got =
  match List.assoc_opt id t with
  | None -> Some (id ^ ": no expected checksums")
  | Some want ->
      if
        List.length want = List.length got
        && List.for_all2 (fun (a, x) (b, y) -> a = b && same_bits x y) want got
      then None
      else
        Some
          (Printf.sprintf "%s: checksums %s, expected %s" id
             (String.concat "," (List.map (fun (a, v) -> Printf.sprintf "%s=%h" a v) got))
             (String.concat "," (List.map (fun (a, v) -> Printf.sprintf "%s=%h" a v) want)))

let compute workloads : t =
  Safara_sim.Decode.with_engine Safara_sim.Decode.Reference (fun () ->
      List.map
        (fun (w : Workload.t) ->
          (w.Workload.id, Workload.run_under Safara_core.Compiler.Base w))
        workloads)

(* Recompute, print a line diff against [path], and rewrite the file
   only when [write] is set. Returns the number of differing lines. *)
let regenerate ~write path =
  let fresh = render (compute Safara_suites.Registry.all) in
  let old = if Sys.file_exists path then Util.read_file path else "" in
  let lines s = List.filter (fun l -> l <> "" && l.[0] <> '#') (String.split_on_char '\n' s) in
  let o = lines old and n = lines fresh in
  let gone = List.filter (fun l -> not (List.mem l n)) o in
  let added = List.filter (fun l -> not (List.mem l o)) n in
  List.iter (fun l -> Printf.printf "- %s\n" l) gone;
  List.iter (fun l -> Printf.printf "+ %s\n" l) added;
  let changes = List.length gone + List.length added in
  if changes = 0 then print_endline "expected checksums: unchanged"
  else if write then begin
    Util.write_file path fresh;
    Printf.printf "expected checksums: %d line(s) changed, %s rewritten\n" changes path
  end
  else Printf.printf "expected checksums: %d line(s) differ (pass --write to update)\n" changes;
  changes
