module V = Safara_vir.Vreg
module Cfg = Safara_vir.Cfg

let per_instruction (cfg : Cfg.t) =
  let n = Array.length cfg.Cfg.code in
  let pressure = Array.make n 0 in
  List.iter
    (fun (iv : Liveness.interval) ->
      let w = V.width iv.Liveness.reg in
      if w > 0 then
        for i = iv.Liveness.i_start to min (n - 1) iv.Liveness.i_end do
          pressure.(i) <- pressure.(i) + w
        done)
    (Liveness.intervals cfg);
  pressure

let max_pressure cfg = Array.fold_left max 0 (per_instruction cfg)

let pp_listing ppf (k : Safara_vir.Kernel.t) =
  let cfg = Cfg.build k.Safara_vir.Kernel.code in
  let pressure = per_instruction cfg in
  Format.fprintf ppf "@[<v>// %s: register pressure (live 32-bit units)@,"
    k.Safara_vir.Kernel.kname;
  Array.iteri
    (fun i instr ->
      Format.fprintf ppf "%4d | %s@," pressure.(i)
        (Safara_vir.Instr.to_string instr))
    k.Safara_vir.Kernel.code;
  Format.fprintf ppf "// peak pressure: %d units@]" (max_pressure cfg)
