(** VIR verifier: proves kernels structurally and dataflow
    well-formed. Any fault means a compiler bug ([SAF020]), never a
    user error. It runs, in assertion builds, after every VIR- and
    assembly-stage pipeline pass ([Pipeline.o_verify]); at every
    [Eval] compile-cache miss, whether the kernels were just compiled
    or read back from the store ([Eval.verify_kernels]); and in
    [saraccc check]. Assembled code stays in virtual-register form
    (spill [Ld]/[St] target local memory, which is writable), so the
    same checks hold.

    Checks:
    - labels are unique, every branch target is defined, control
      cannot fall off the end, a [ret] exists;
    - every register is defined before use on {e all} paths from
      entry: {!Dataflow.Reach} numbers each (instruction, defined
      register) pair as a bit, adds one synthetic "uninitialized"
      bit per register that enters at kernel entry, and runs a
      bit-vector reaching-definitions analysis with per-block
      gen/kill sets; a use faults when its register's uninitialized
      bit reaches it, and the message lists the definitions that
      reach on the other paths. Uses in blocks unreachable from entry
      are not checked;
    - operand/instruction type agreement: [setp] writes a predicate
      and compares non-predicates, branch conditions are predicates,
      arithmetic never writes predicates, [cvt] never involves
      predicates, load width matches the destination register class,
      [ld.param] names a kernel parameter;
    - memory-space legality: stores and atomics only to writable
      spaces (global/shared/local), no [ld] from param space. *)

val verify : Kernel.t -> Safara_diag.Diagnostic.t list
(** Empty list = well-formed. Deterministic order (per-check, then
    instruction index). *)

val verify_exn : Kernel.t -> unit
(** @raise Invalid_argument with the full fault report. *)
