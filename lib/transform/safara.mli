(** SAFARA: StAtic Feedback-bAsed Register allocation Assistant
    (paper §III.B).

    The iterative driver:
    + collect reuse candidates ({!Safara_analysis.Reuse}), classified
      by memory space and access pattern; stop when there are none;
    + [measure] the region — the "PTXAS Info" feedback;
    + available registers = cap − registers used;
    + if every candidate fits, replace them all; otherwise take the
      highest [C × L] cost candidates that fit;
    + repeat until registers are exhausted or no candidates remain.

    The [cost_model] and [use_feedback] switches exist for the
    ablation benchmarks: [`Count_only] reproduces the Carr–Kennedy
    metric (paper §III.A.2's criticised baseline); disabling feedback
    replaces the measured register count with a fixed estimate. *)

type config = {
  reg_cap : int;  (** register budget per thread (≤ hardware cap) *)
  policy : Safara_analysis.Reuse.policy;
  cost_model : [ `Latency_times_count | `Count_only ];
  use_feedback : bool;
  max_rounds : int;  (** safety bound on feedback iterations *)
  assumed_free_regs : int;
      (** available-register estimate used when [use_feedback] is off *)
}

val default_config : arch:Safara_gpu.Arch.t -> config

type round = {
  round_index : int;
  regs_before : int;  (** ptxas feedback at the start of the round *)
  available : int;
  applied : Safara_analysis.Reuse.candidate list;
  skipped : int;  (** candidates that did not fit this round *)
}

val optimize_region :
  ?config:config ->
  measure:(Safara_ir.Program.t -> Safara_ir.Region.t -> int) ->
  arch:Safara_gpu.Arch.t ->
  latency:Safara_gpu.Latency.table ->
  Safara_ir.Program.t ->
  Safara_ir.Region.t ->
  Safara_ir.Region.t * round list
(** The region must be schedule-resolved; [measure prog region] is the
    registers per thread it compiles to. Returns the transformed
    region and the per-round log (empty when nothing was applied). *)

val optimize_program :
  ?config:config ->
  measure:(Safara_ir.Program.t -> Safara_ir.Region.t -> int) ->
  arch:Safara_gpu.Arch.t ->
  latency:Safara_gpu.Latency.table ->
  Safara_ir.Program.t ->
  Safara_ir.Program.t * (string * round list) list
(** {!optimize_region} over every region of a schedule-resolved
    program. *)

val pp_round : Format.formatter -> round -> unit
