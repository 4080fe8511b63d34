(** Reference cycle-level model of one TRIPS processor — the
    pre-optimization simulator, kept verbatim as the golden baseline.

    {!Core} is a hot-path rewrite of this module (static per-block timing
    plans, allocation-free instance timing) that must stay bit-identical:
    the parity suite ([test/test_sim_parity.ml]) asserts both produce the
    same statistics on every registered workload, and [trips_run simbench]
    measures the optimized simulator's speedup against this one on the
    same machine, which is what [check.sh] gates.  Do not "fix" or speed
    up this module: its value is that it does not change.

    Trace-driven: the architectural dataflow comes from
    {!Trips_edge.Exec} block instances; this module assigns every fired
    instruction an issue and completion cycle by modeling

    - distributed fetch: next-block prediction at fetch time, I-cache
      access over the block's (compressed) footprint, 16-wide dispatch;
    - dataflow issue: an instruction fires when its operands arrive over
      the operand network from their producers' tiles (one issue per ET per
      cycle, one operand per OPN link per cycle);
    - the banked L1 D-cache behind the data tiles, with an LSQ that
      speculates loads and flushes on store-load violations, feeding the
      load-wait table;
    - block completion (all writes at the RTs, all LSIDs at the DTs, one
      branch at the GT), in-order commit, and an eight-block window;
    - misprediction redirects that restart fetch at branch resolution.

    The statistics cover Figs 6, 8, 9 and Table 3.  The module consumes
    and produces {!Core}'s types, so a parity check compares whole
    [Core.result] records. *)

val run :
  ?config:Core.config ->
  ?fuel:int ->
  Trips_edge.Block.program ->
  Trips_tir.Image.t ->
  entry:string ->
  args:Trips_tir.Ty.value list ->
  Core.result
