(* What one unit of a workload reports: one full evaluation, one round
   of compiles, or one serve session. *)

type t = {
  setup_s : float list;  (** one entry per set-up repetition *)
  wall_s : float;  (** the timed part *)
  ops_ms : float list;  (** per-operation latencies *)
  attempted : int;
  failures : string list;
  mem_mb : float option;
      (** the unit's memory figure when it is not this process's peak
          RSS: a worker process's peak, or a retained heap *)
  det : (string * float) list;  (** values that must repeat exactly *)
  layers : (string * float) list;  (** per-layer metrics *)
  spans : Span.t list;  (** the unit's trace, when traced *)
}

(* Attempted / failed bookkeeping for the operations of one unit. *)
type tally = { mutable attempted : int; mutable failures : string list; lock : Mutex.t }

let tally () = { attempted = 0; failures = []; lock = Mutex.create () }

let fail t msg =
  Mutex.lock t.lock;
  t.failures <- msg :: t.failures;
  Mutex.unlock t.lock

(* Run one operation, counting it and turning an uncaught exception
   into a failure. *)
let op t ~what f =
  Mutex.lock t.lock;
  t.attempted <- t.attempted + 1;
  Mutex.unlock t.lock;
  match f () with
  | () -> ()
  | exception e -> fail t (what ^ ": " ^ Printexc.to_string e)

(* Set up [reps] times and keep the last instance, so set-up time is a
   median rather than one sample; earlier instances are released with
   [discard]. *)
let repeat_setup ~reps ~discard f =
  let rec go i acc =
    let v, dt = Util.time f in
    if i + 1 >= reps then (v, List.rev (dt :: acc))
    else begin
      discard v;
      go (i + 1) (dt :: acc)
    end
  in
  go 0 []

(* Summed self time per span name. *)
let self_by_name spans =
  let h = Hashtbl.create 64 in
  List.iter
    (fun ((s : Span.t), self) ->
      Hashtbl.replace h s.Span.name
        (self +. Option.value (Hashtbl.find_opt h s.Span.name) ~default:0.))
    (Span.self_times spans);
  h

let self_of h name = Option.value (Hashtbl.find_opt h name) ~default:0.

let self_with_prefix h prefix =
  Hashtbl.fold
    (fun name v acc -> if String.starts_with ~prefix name then acc +. v else acc)
    h 0.
