module I = Safara_vir.Instr
module V = Safara_vir.Vreg
module K = Safara_vir.Kernel
module Diag = Safara_diag.Diagnostic

type report = {
  kernel_name : string;
  regs_used : int;
  pred_regs : int;
  spill_bytes : int;
  spill_loads : int;
  spill_stores : int;
  instructions : int;
}

let count_spill_ops code =
  Array.fold_left
    (fun (ld, st) i ->
      match i with
      | I.Ld { note = "spill"; _ } -> (ld + 1, st)
      | I.St { note = "spill"; _ } -> (ld, st + 1)
      | _ -> (ld, st))
    (0, 0) code

(* spill code reloads every operand into a temporary just before the
   instruction and stores its result just after, so no cap below this
   can be met (predicates count 0) *)
let operand_floor code =
  Array.fold_left
    (fun acc instr ->
      let regs = V.Set.of_list (I.uses instr @ I.defs instr) in
      max acc (V.Set.fold (fun r n -> n + V.width r) regs 0))
    0 code

let max_rounds = 16

(* SAF037: a cap the allocator cannot meet. Raised as [Failure] with
   the rendered diagnostic, so the CLI exits nonzero with it and the
   daemon answers with an [Error] reply. *)
let unsatisfiable (k : K.t) ~hint fmt =
  Format.kasprintf
    (fun msg ->
      failwith
        (Diag.render
           (Diag.make ~code:"SAF037" ~where:("kernel " ^ k.K.kname) ~hint
              Diag.Error msg)))
    fmt

let assemble ?max_regs ~arch (k : K.t) =
  let cap =
    Option.value max_regs ~default:arch.Safara_gpu.Arch.max_registers_per_thread
  in
  let floor = operand_floor k.K.code in
  if cap < floor then
    unsatisfiable k
      ~hint:(Printf.sprintf "raise the cap to at least %d" floor)
      "register cap %d is below the %d 32-bit units one instruction's \
       operands need at once"
      cap floor;
  let rec go code spill_bytes round =
    if round > max_rounds then
      unsatisfiable k ~hint:"raise the cap"
        "spilling did not converge under a cap of %d registers after %d \
         rounds"
        cap max_rounds;
    let res = Linear_scan.allocate ~max_regs:cap (Safara_vir.Cfg.build code) in
    match res.Linear_scan.spilled with
    | [] -> (code, res, spill_bytes)
    | spilled ->
        let code', bytes = Spill.rewrite ~slot_base:spill_bytes spilled code in
        go code' (spill_bytes + bytes) (round + 1)
  in
  let code, res, spill_bytes = go k.K.code 0 0 in
  let spill_loads, spill_stores = count_spill_ops code in
  ( { k with K.code },
    {
      kernel_name = k.K.kname;
      regs_used = res.Linear_scan.regs_used;
      pred_regs = res.Linear_scan.pred_used;
      spill_bytes;
      spill_loads;
      spill_stores;
      instructions = Array.length code;
    } )

let pp_report ppf r =
  Format.fprintf ppf
    "ptxas info: %s: %d registers, %d predicates, %d bytes spill (%d loads, %d stores), %d instructions"
    r.kernel_name r.regs_used r.pred_regs r.spill_bytes r.spill_loads
    r.spill_stores r.instructions
