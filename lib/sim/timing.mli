(** Static critical-path timing analysis of scheduled EDGE blocks.

    The cost model is the optimistic core of the cycle-level simulator
    ({!Core}), with its parameters read from the same {!Core.config}:
    progressive dispatch, dataflow issue with per-opcode latencies from
    {!Trips_edge.Isa.latency}, operand-network hops as Manhattan distance
    on the {!Trips_edge.Isa} mesh geometry, and cache-hit memory latency —
    but no link contention, no per-tile issue serialization and no cache
    misses.  On an unpredicated block every modeled event is therefore a
    lower bound on the corresponding simulator event.

    Each block is summarized as a max-plus system: every output (write
    slot, memory completion, per-exit branch resolution) is the max of a
    constant lag from dispatch and a lag from each read slot's register
    availability.  Summaries compose over a dynamic block trace ({!step},
    {!predict_program}), which predicts whole-program cycles without the
    cycle-level simulator.

    The parameters read from {!Core.config} are [dispatch_rate],
    [fetch_interval], [redirect_penalty], [commit_overhead],
    [window_blocks], the predictor, and the L1I/L1D [hit_latency].
    {!analyze_block}, {!summarize_program} and {!predict_program} use
    {!Core.prototype}'s. *)

val neg : int
(** Sentinel for "no path" in the summary lag tables. *)

(** Decomposition of the critical path into cost sources. *)
type breakdown = {
  bk_compute : int;            (** execution latency on the critical path *)
  bk_route : int;              (** OPN hop cycles on the critical path *)
  bk_memory : int;             (** D-cache pipeline cycles on the path *)
  bk_overhead : int;           (** dispatch waits on the critical path *)
}

(** Static timing summary of one scheduled block.  All lags are in cycles
    relative to the block's dispatch start; [neg] marks "no path". *)
type summary = {
  s_label : string;
  s_n : int;                   (** instruction count *)
  s_crit : int;                (** weighted critical path *)
  s_completion : int array;    (** per-inst earliest completion *)
  s_slack : int array;         (** per-inst slack against [s_crit] *)
  s_breakdown : breakdown;
  s_tile_load : int array;     (** instructions placed per ET *)
  s_link_max : int;            (** static messages on the busiest OPN link *)
  s_contention_est : int;      (** advisory estimate of link contention *)
  s_pred_depth : int;          (** deepest chain of dependent predicates *)
  s_reads : int array;         (** read slot -> architectural register *)
  s_writes : int array;        (** write slot -> architectural register *)
  s_exit_insts : int array;    (** branch instruction per exit, in
                                   [Block.exits] order *)
  s_dispatch_done : int;
  s_base_write : int array;
  s_base_mem : int;
  s_base_resolve : int array;
  s_read_write : int array array;
  s_read_mem : int array;
  s_read_resolve : int array array;
}

val analyze_block :
  fname:string -> Trips_edge.Block.t -> summary * Trips_analysis.Diag.t list
(** Analyze one scheduled block: build the dependence DAG, compute the
    weighted critical path, slack map and cost breakdown, and emit
    [pass:"timing"] placement-quality diagnostics (route-critical,
    et-hotspot, opn-hotspot, pred-chain).  Blocks without a valid
    placement or with a cyclic dataflow graph get a degenerate summary
    plus a ["timing-skipped"] diagnostic.  Machine parameters are
    {!Core.prototype}'s. *)

val summarize_program :
  Trips_edge.Block.program ->
  (string, summary) Hashtbl.t * Trips_analysis.Diag.t list
(** Summaries for every block (keyed by label), all per-block diagnostics,
    plus cross-block ["reg-roundtrip"] findings: a register write carrying
    the critical path from a block into its unique jump successor. *)

val predicted_block_cost : Core.config -> summary -> int
(** Standalone per-block latency estimate: fetch + critical path + commit
    overhead, ignoring inter-block overlap. *)

(** {1 Trace composition}

    Replays a dynamic block trace over the static summaries, mirroring
    the simulator's fetch/commit bookkeeping (fetch pipelining, block
    window, register-ready forwarding, misprediction redirects). *)

type state

val create : Core.config -> state

val step : state -> summary -> exit_idx:int -> prev_correct:bool -> unit
(** Account one block instance.  [exit_idx] indexes [s_exit_insts] /
    [Block.exits] order; [prev_correct] says whether the predictor had
    correctly anticipated this instance (false triggers the redirect
    penalty). *)

val cycles : state -> int
(** Predicted total cycles: commit time of the last stepped block. *)

val blocks_stepped : state -> int
val mispredicts : state -> int

(** {1 Whole-program prediction} *)

type prediction = {
  pr_cycles : int;              (** predicted whole-program cycles *)
  pr_blocks : int;              (** block instances composed *)
  pr_mispredicts : int;         (** redirects the replayed predictor took *)
  pr_counts : (string, int) Hashtbl.t;  (** block label -> executed instances *)
  pr_summaries : (string, summary) Hashtbl.t;
  pr_diags : Trips_analysis.Diag.t list;
}

val predict_program :
  Trips_edge.Block.program ->
  Trips_tir.Image.t ->
  entry:string ->
  args:Trips_tir.Ty.value list ->
  prediction
(** Predict whole-program cycles without the cycle-level simulator: one
    functional execution plus O(blocks) summary composition.  The
    next-block predictor is replayed over the trace by
    {!Core.predict_exit} on a {!Core.make_sim}, so redirects land on
    exactly the instances the simulator mispredicts. *)
