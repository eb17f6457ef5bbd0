(* Small helpers shared by the workloads: statistics, seeded choice,
   process memory, files. *)

(* Linear interpolation between closest ranks, [p] in [0, 1]. *)
let percentile p = function
  | [] -> nan
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      let r = p *. float_of_int (n - 1) in
      let lo = truncate r in
      let hi = min (n - 1) (lo + 1) in
      a.(lo) +. ((r -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median l = percentile 0.5 l

let geomean = function
  | [] -> nan
  | l ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0. l
        /. float_of_int (List.length l))

let sum = List.fold_left ( +. ) 0.

(* A stream of choices fixed by the workload seed and a salt that
   names what the choice is for, so adding one draw never shifts the
   others. *)
let rng ~seed salt = Random.State.make [| seed; Hashtbl.hash salt |]

let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Peak resident set (VmHWM) of a process, in MiB; [None] when /proc
   does not say. *)
let peak_rss_mb pid =
  let path =
    match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf line "VmHWM: %d kB" (fun kb -> Some (float_of_int kb /. 1024.))
            else scan ()
      in
      let r = scan () in
      close_in ic;
      r

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)
