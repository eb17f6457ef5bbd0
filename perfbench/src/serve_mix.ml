(* serve-mix: a compile daemon under a build tool's closed loop.

   A unit is one session. Set-up fills a fresh artifact store with part
   of the key space, records the in-process [Commands.compile] listing
   of every key the session will ask for, starts `saraccc serve` as its
   own process over that store, and touches the hot keys once so they
   sit in the daemon's memory. Then two connections, each waiting for
   its reply before sending again, drain one seeded request stream:

   - hot: repeats of the hot keys (memory hits);
   - disk: the first touch of a stored key (store read and unmarshal);
   - miss: a key nobody has compiled (compile and store write).

   Each source's six profiles are split into two hot keys, three stored
   keys and one fresh key, on architectures the seed picks. The class
   shares are an assumption of this benchmark, not measured traffic;
   BENCHMARK.md gives how the tail moves with them. *)

module Eval = Safara_suites.Eval
module Workload = Safara_suites.Workload
module Protocol = Safara_serve.Protocol
module Client = Safara_serve.Client
module Commands = Safara_serve.Commands
module Sjson = Safara_serve.Sjson

type cls = Hot | Disk | Miss

(* the daemon's and set-up's pool size, and the closed-loop client
   connections: both sized for a 2-core host *)
let jobs = 2
let conns = 2

(* keys per source in each class; they add up to the six profiles *)
let hot_per_source = 2
let disk_per_source = 3

type config = {
  saraccc : string;  (** the daemon binary *)
  run_dir : string;  (** sessions live in fresh subdirectories here *)
  workloads : Workload.t list;
  hot_requests : int;  (** repeats of hot keys per session *)
  tamper : Protocol.response -> Protocol.response;
      (** applied to every reply before it is checked; the identity
          except in the benchmark's own tests *)
}

let default_config ~saraccc ~run_dir =
  { saraccc; run_dir; workloads = Safara_suites.Registry.all; hot_requests = 1000;
    tamper = Fun.id }

(* The session's keys by class. Source [s] gives its class slot [i]
   the profile [(offset + s + i) mod 6], so over the 21 sources every
   profile falls 3 or 4 times in each class slot whatever the seed
   draws: each session asks for the same mix of cheap and expensive
   compiles. The seed draws the offset and each key's architecture. *)
let keys cfg ~seed ~index =
  let st = Util.rng ~seed ("keys", index) in
  let archs = Array.of_list Safara_gpu.Arch.names in
  let profiles = Array.of_list Cold_compile.profiles in
  let n = Array.length profiles in
  let offset = Random.State.int st n in
  let keyed =
    List.concat
      (List.mapi
         (fun s (w : Workload.t) ->
           List.init n (fun i ->
               let profile = profiles.((offset + s + i) mod n) in
               let arch = archs.(Random.State.int st (Array.length archs)) in
               ( (if i < hot_per_source then Hot
                  else if i < hot_per_source + disk_per_source then Disk
                  else Miss),
                 Cold_compile.request ~src:w.Workload.source ~name:w.Workload.id ~arch ~profile )))
         cfg.workloads)
  in
  let of_class c = List.filter_map (fun (c', r) -> if c' = c then Some r else None) keyed in
  (of_class Hot, of_class Disk, of_class Miss)

(* The request stream: every disk and miss key once, plus
   [hot_requests] repeats of hot keys drawn uniformly. *)
let plan cfg ~seed ~index (hot, disk, miss) =
  let st = Util.rng ~seed ("plan", index) in
  let hot = Array.of_list hot in
  let repeats =
    List.init cfg.hot_requests (fun _ -> (Hot, hot.(Random.State.int st (Array.length hot))))
  in
  Util.shuffle st
    (Array.of_list
       (repeats @ List.map (fun r -> (Disk, r)) disk @ List.map (fun r -> (Miss, r)) miss))

let check_reply ~expected = function
  | Protocol.Result (o, _) when o.Protocol.code <> 0 ->
      Error (Printf.sprintf "exit code %d" o.Protocol.code)
  | Protocol.Result (o, _) when not (String.equal o.Protocol.out expected) ->
      Error "listing differs from the in-process compile"
  | Protocol.Result (_, served_ms) -> Ok served_ms
  | Protocol.Error e -> Error ("error reply: " ^ e)
  | Protocol.Data _ -> Error "unexpected data reply"

let rec connect ~deadline socket =
  match Client.try_connect socket with
  | Some c -> c
  | None ->
      if Unix.gettimeofday () > deadline then failwith ("daemon not reachable on " ^ socket);
      Unix.sleepf 0.005;
      connect ~deadline socket

type daemon = { pid : int; socket : string }

let start_daemon cfg ~dir =
  let store = Filename.concat dir "store" and socket = Filename.concat dir "s.sock" in
  let log = Unix.openfile (Filename.concat dir "daemon.log") [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close log) (fun () ->
        Unix.create_process cfg.saraccc
          [| cfg.saraccc; "serve"; "-j"; string_of_int jobs; "--socket"; socket;
             "--store"; store |]
          Unix.stdin log log)
  in
  let d = { pid; socket } in
  Client.close (connect ~deadline:(Unix.gettimeofday () +. 30.) socket);
  d

let rec wait_exit pid ~deadline =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ ->
      if Unix.gettimeofday () > deadline then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      end
      else begin
        Unix.sleepf 0.005;
        wait_exit pid ~deadline
      end
  | _ -> ()
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

let stop_daemon d =
  (match Client.try_connect d.socket with
  | Some c ->
      (try ignore (Client.request c Protocol.Shutdown) with _ -> ());
      Client.close c
  | None -> ());
  wait_exit d.pid ~deadline:(Unix.gettimeofday () +. 10.)

(* In-process listings for [reqs], compiled on a [jobs]-wide engine
   (persisting every artifact when [store] is given). *)
let compile_all ?store reqs =
  let eng =
    Eval.create ~jobs ?store:(Option.map Safara_engine.Store.open_store store) ()
  in
  Fun.protect ~finally:(fun () -> Eval.shutdown eng) (fun () ->
      Eval.map eng
        (fun (r : Protocol.compile_req) ->
          let o = Commands.compile eng r in
          if o.Protocol.code <> 0 then failwith (Cold_compile.key_name r ^ ": set-up compile failed");
          (Cold_compile.key_name r, o.Protocol.out))
        reqs)

type reply = { r_cls : cls; r_ms : float; r_served_ms : float; r_ok : bool }

let run_unit cfg ~seed ~index ~traced : Outcome.t =
  let hot, disk, miss = keys cfg ~seed ~index in
  let stream = plan cfg ~seed ~index (hot, disk, miss) in
  let dir = Filename.concat cfg.run_dir (Printf.sprintf "session-%d-%d" (Unix.getpid ()) index) in
  let tally = Outcome.tally () in
  let daemon = ref None in
  Fun.protect
    ~finally:(fun () ->
      Option.iter stop_daemon !daemon;
      Util.rm_rf dir)
    (fun () ->
      let expected, setup_s =
        Util.time (fun () ->
            Util.rm_rf dir;
            Util.mkdir_p dir;
            let stored = compile_all ~store:(Filename.concat dir "store") (hot @ disk) in
            let fresh = compile_all miss in
            let expected = Hashtbl.create 256 in
            List.iter (fun (k, out) -> Hashtbl.replace expected k out) (stored @ fresh);
            let d = start_daemon cfg ~dir in
            daemon := Some d;
            let c = connect ~deadline:(Unix.gettimeofday () +. 10.) d.socket in
            Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
                List.iter
                  (fun r ->
                    match
                      check_reply ~expected:(Hashtbl.find expected (Cold_compile.key_name r))
                        (Client.request c (Protocol.Compile r))
                    with
                    | Ok _ -> ()
                    | Error e -> failwith ("warming " ^ Cold_compile.key_name r ^ ": " ^ e))
                  hot);
            expected)
      in
      let d = Option.get !daemon in
      let n = Array.length stream in
      let replies = Array.make n { r_cls = Hot; r_ms = 0.; r_served_ms = 0.; r_ok = false } in
      let next = Atomic.make 0 in
      let client () =
        Span.with_ ~name:"conn" (fun () ->
            (* a broken connection is dropped and re-opened once per
               request, so a dead daemon fails the rest of the stream
               fast instead of hanging it *)
            let conn = ref None in
            let drop () = Option.iter Client.close !conn; conn := None in
            let rec loop () =
              let i = Atomic.fetch_and_add next 1 in
              if i < n then begin
                let cls, req = stream.(i) in
                let key = Cold_compile.key_name req in
                let t0 = Unix.gettimeofday () in
                Outcome.op tally ~what:key (fun () ->
                    if Option.is_none !conn then conn := Client.try_connect d.socket;
                    let c = match !conn with Some c -> c | None -> failwith "daemon not reachable" in
                    match
                      Span.with_ ~job:i ~name:"serve.request" (fun () ->
                          cfg.tamper (Client.request c (Protocol.Compile req)))
                    with
                    | exception e -> drop (); raise e
                    | resp -> (
                        let ms = (Unix.gettimeofday () -. t0) *. 1000. in
                        match check_reply ~expected:(Hashtbl.find expected key) resp with
                        | Ok served ->
                            replies.(i) <- { r_cls = cls; r_ms = ms; r_served_ms = served; r_ok = true }
                        | Error e -> Outcome.fail tally (key ^ ": " ^ e)));
                loop ()
              end
            in
            Fun.protect ~finally:drop loop)
      in
      let (), wall =
        Util.time (fun () ->
            let ds = List.init conns (fun _ -> Domain.spawn client) in
            List.iter Domain.join ds)
      in
      let spans = Span.collect () in
      let stats =
        match Client.with_connection d.socket (fun c -> Client.request c Protocol.Stats) with
        | Some (Protocol.Data j) -> Sjson.member "store" j
        | _ -> Sjson.Null
      in
      let rss = Util.peak_rss_mb (Some d.pid) in
      stop_daemon d;
      daemon := None;
      let ok = List.filter (fun r -> r.r_ok) (Array.to_list replies) in
      let served c = List.filter_map (fun r -> if r.r_cls = c then Some r.r_served_ms else None) ok in
      let store_count k = float_of_int (Sjson.to_int (Sjson.member k stats)) in
      let h = Outcome.self_by_name spans in
      let layers =
        [ ("serve.hit_served_ms_p50", Util.median (served Hot));
          ("serve.disk_served_ms_p50", Util.median (served Disk));
          ("serve.miss_served_ms_p50", Util.median (served Miss));
          ("serve.transport_ms_p50", Util.median (List.map (fun r -> r.r_ms -. r.r_served_ms) ok));
          ("engine.store.disk_hits", store_count "disk_hits");
          ("engine.store.disk_misses", store_count "disk_misses");
          ("engine.store.bytes_read", store_count "bytes_read");
          ("engine.store.bytes_written", store_count "bytes_written");
          ("engine.store.corrupt", store_count "corrupt");
          ("trace.unattributed_s", Outcome.self_of h "conn" /. float_of_int conns) ]
      in
      { Outcome.setup_s = [ setup_s ]; wall_s = wall; ops_ms = List.map (fun r -> r.r_ms) ok;
        attempted = tally.Outcome.attempted; failures = List.rev tally.Outcome.failures;
        mem_mb = rss; det = []; layers = (if traced then layers else []); spans })
