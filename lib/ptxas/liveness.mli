(** Live-interval construction for the linear-scan allocator, over the
    shared {!Safara_vir.Cfg} and {!Safara_vir.Dataflow.Live} solver —
    the same CFG and liveness the optimizer passes, the verifier and
    the SAF036 pressure lint use. A register's interval covers every
    instruction index at which it is live (or defined), so values that
    cross a loop back edge are live for the whole loop body — the
    long-lived dope-vector and base-pointer values the paper's clauses
    target end up with kernel-length intervals. *)

type interval = {
  reg : Safara_vir.Vreg.t;
  i_start : int;
  i_end : int;  (** inclusive *)
  use_count : int;
}

val intervals : Safara_vir.Cfg.t -> interval list
(** Sorted by increasing [i_start]. Registers that are defined but
    never live (dead definitions) still get a point interval at their
    definition. *)

val live_at : interval -> int -> bool
