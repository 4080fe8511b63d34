(** Cross-block CFG analyses: branch-target resolution, register liveness
    (use-before-def across hyperblocks, dead writes), reachability.

    Block read/write header slots are the uses/defs: write slots commit
    unconditionally under block-atomic execution, so the block-level
    transfer functions are exact.  Use-before-def flags reads of registers
    no block of the function writes at all (modulo the ABI set r0-r9) —
    the register file is zero-initialized, so reads that merely precede
    their writes on some path observe a well-defined 0 and are legal. *)

val check_func :
  fname:string ->
  ?known_funcs:string list ->
  Trips_edge.Block.func ->
  Diag.t list
(** Analyze one function.  [known_funcs] enables callee resolution; omit it
    when the rest of the program is not available yet (per-pass compiler
    verification). *)
