(* Spans recorded by the benchmark around its calls into the program.

   Each domain appends to its own buffer, so recording takes no lock;
   buffers register themselves once, under a mutex, the first time a
   domain opens a span. Nothing is recorded while [enabled] is false,
   so an untraced run pays one branch per call site. *)

type t = {
  id : int;
  name : string;
  parent : int;  (** id of the enclosing span on the same domain, or -1 *)
  job : int;  (** operation the span belongs to: request or check index *)
  domain : int;
  t0 : float;
  t1 : float;
}

type buffer = {
  mutable stack : (int * string * int * float) list;
      (** open spans, innermost first: id, name, job, start *)
  mutable closed : t list;
}

let enabled = Atomic.make false
let next_id = Atomic.make 0
let registry_lock = Mutex.create ()
let registry : buffer list ref = ref []

let buffer_key =
  Domain.DLS.new_key (fun () ->
      let b = { stack = []; closed = [] } in
      Mutex.lock registry_lock;
      registry := b :: !registry;
      Mutex.unlock registry_lock;
      b)

let now = Unix.gettimeofday

(* [with_ ~name f] runs [f] inside a span. [rename] may replace the
   name once the result is known (a kernel launch learns only after it
   ran whether it went block-parallel). *)
let with_ ?job ?rename ~name f =
  if not (Atomic.get enabled) then f ()
  else begin
    let b = Domain.DLS.get buffer_key in
    let id = Atomic.fetch_and_add next_id 1 in
    let parent, job =
      match b.stack with
      | (pid, _, pjob, _) :: _ -> (pid, Option.value job ~default:pjob)
      | [] -> (-1, Option.value job ~default:(-1))
    in
    b.stack <- (id, name, job, now ()) :: b.stack;
    let close result_name =
      match b.stack with
      | (sid, _, sjob, t0) :: rest when sid = id ->
          b.stack <- rest;
          b.closed <-
            { id; name = result_name; parent; job = sjob;
              domain = (Domain.self () :> int); t0; t1 = now () }
            :: b.closed
      | _ -> invalid_arg "Span.with_: spans closed out of order"
    in
    match f () with
    | v ->
        close (match rename with Some r -> r v | None -> name);
        v
    | exception e ->
        close name;
        raise e
  end

(* Every span closed so far on every domain, oldest first; the buffers
   are emptied. Call it only when no other domain is recording. *)
let collect () =
  Mutex.lock registry_lock;
  let all =
    List.concat_map
      (fun b ->
        let l = b.closed in
        b.closed <- [];
        l)
      !registry
  in
  Mutex.unlock registry_lock;
  List.sort (fun a b -> compare a.id b.id) all

let open_spans () =
  Mutex.lock registry_lock;
  let n = List.fold_left (fun acc b -> acc + List.length b.stack) 0 !registry in
  Mutex.unlock registry_lock;
  n

let duration s = s.t1 -. s.t0

(* Self time: a span's duration minus the part its children cover.
   Children of one parent run on the parent's domain one after another,
   so their durations do not overlap. *)
let self_times spans =
  let child_sum = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_sum s.parent
          (duration s
          +. Option.value (Hashtbl.find_opt child_sum s.parent) ~default:0.))
    spans;
  List.map
    (fun s ->
      (s, duration s -. Option.value (Hashtbl.find_opt child_sum s.id) ~default:0.))
    spans

(* Structural checks on a finished trace: every parent is a recorded
   span on the same domain whose interval encloses the child's, and no
   self time is negative. Returns the first violation found. *)
let check_balanced spans =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let eps = 1e-6 in
  let problem =
    List.find_map
      (fun s ->
        if not (s.t1 >= s.t0) then Some (Printf.sprintf "span %s ends before it starts" s.name)
        else if s.parent < 0 then None
        else
          match Hashtbl.find_opt by_id s.parent with
          | None -> Some (Printf.sprintf "span %s has an unrecorded parent" s.name)
          | Some p when p.domain <> s.domain ->
              Some (Printf.sprintf "span %s is on another domain than its parent" s.name)
          | Some p when s.t0 < p.t0 -. eps || s.t1 > p.t1 +. eps ->
              Some (Printf.sprintf "span %s leaves its parent %s" s.name p.name)
          | Some _ -> None)
      spans
  in
  match problem with
  | Some _ -> problem
  | None ->
      List.find_map
        (fun (s, self) ->
          if self < -.eps then Some (Printf.sprintf "span %s has negative self time" s.name)
          else None)
        (self_times spans)
