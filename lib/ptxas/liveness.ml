module V = Safara_vir.Vreg
module I = Safara_vir.Instr
module Cfg = Safara_vir.Cfg

type interval = { reg : V.t; i_start : int; i_end : int; use_count : int }

let intervals (cfg : Cfg.t) =
  let live = Safara_vir.Dataflow.Live.analyze cfg in
  let tbl : (int, int * int * int) Hashtbl.t = Hashtbl.create 64 in
  (* rid -> (start, end, uses) *)
  let regs : (int, V.t) Hashtbl.t = Hashtbl.create 64 in
  let touch r i ~is_use =
    Hashtbl.replace regs r.V.rid r;
    match Hashtbl.find_opt tbl r.V.rid with
    | None -> Hashtbl.replace tbl r.V.rid (i, i, if is_use then 1 else 0)
    | Some (s, e, u) ->
        Hashtbl.replace tbl r.V.rid
          (min s i, max e i, if is_use then u + 1 else u)
  in
  Array.iteri
    (fun k (b : Cfg.block) ->
      (* anything live-in is live at the block start; live-out at end *)
      V.Set.iter (fun r -> touch r b.Cfg.first ~is_use:false) live.live_in.(k);
      V.Set.iter (fun r -> touch r b.Cfg.last ~is_use:false) live.live_out.(k);
      Cfg.iter_instrs cfg k (fun i instr ->
          List.iter (fun u -> touch u i ~is_use:true) (I.uses instr);
          List.iter (fun d -> touch d i ~is_use:false) (I.defs instr)))
    cfg.Cfg.blocks;
  Hashtbl.fold
    (fun rid (s, e, u) acc ->
      { reg = Hashtbl.find regs rid; i_start = s; i_end = e; use_count = u } :: acc)
    tbl []
  |> List.sort (fun a b ->
         match Int.compare a.i_start b.i_start with
         | 0 -> Int.compare a.reg.V.rid b.reg.V.rid
         | c -> c)

let live_at iv i = i >= iv.i_start && i <= iv.i_end
