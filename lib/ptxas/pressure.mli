(** Register-pressure reporting: how many 32-bit register units are
    simultaneously live at each instruction. The maximum over the
    kernel is a lower bound on any allocation (the test suite checks
    the linear-scan result never beats it), and the annotated listing
    is the debugging view for "where did my registers go" questions —
    on dope-vector-heavy kernels the pressure plateau starts right
    after the descriptor loads. *)

val per_instruction : Safara_vir.Cfg.t -> int array
(** Live 32-bit units at (i.e. just before) each instruction index. *)

val max_pressure : Safara_vir.Cfg.t -> int

val pp_listing : Format.formatter -> Safara_vir.Kernel.t -> unit
(** The instruction stream annotated with live-unit counts. *)
