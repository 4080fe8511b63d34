(** Cycle-level model of one TRIPS processor.

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

    The statistics cover Figs 6, 8, 9 and Table 3. *)

type config = {
  predictor : Trips_predictor.Blockpred.config;
  fetch_interval : int;        (* min cycles between back-to-back fetches *)
  dispatch_rate : int;         (* instructions dispatched per cycle *)
  redirect_penalty : int;      (* fetch restart after a misprediction *)
  flush_penalty : int;         (* pipeline flush on a load violation *)
  commit_overhead : int;       (* distributed commit protocol *)
  window_blocks : int;         (* 8 in the prototype *)
  l1d : Trips_mem.Cache.config;
  l1i : Trips_mem.Cache.config;
  l2 : Trips_mem.Cache.config;
  dram : Trips_mem.Hier.dram_config;
}

val prototype : config

type stats = {
  mutable cycles : int;
  mutable blocks : int;
  mutable branch_mispredicts : int;       (* jump-exit mispredictions *)
  mutable callret_mispredicts : int;      (* call/return mispredictions *)
  mutable load_flushes : int;
  mutable icache_misses : int;
  mutable dcache_misses : int;
  mutable l2_misses : int;
  mutable occupancy_weighted : float;     (* Σ insts-in-flight per cycle *)
  mutable occupancy_useful : float;
  mutable peak_occupancy : int;
  mutable l1d_bytes : int;
  mutable l2_bytes : int;
  mutable dram_bytes : int;
}

type block_obs = {
  mutable bo_instances : int;    (* committed instances of the block *)
  mutable bo_latency : int;      (* Σ (dataflow done - dispatch start) *)
  mutable bo_residency : int;    (* Σ (commit - fetch) *)
}
(** Measured per-block cycle counts, the reference the static timing
    analyzer ({!Timing}) cross-validates against:
    [bo_latency / bo_instances] is the mean measured dataflow critical
    path of the block, on the same clock as the analyzer's prediction. *)

type result = {
  ret : Trips_tir.Ty.value option;
  exec : Trips_edge.Exec.stats;           (* architectural counts *)
  timing : stats;
  opn : Trips_noc.Opn.profile;
  opn_average_hops : float;
  block_profile : (string * block_obs) list;  (* sorted by block label *)
}

val run :
  ?config:config ->
  ?fuel:int ->
  Trips_edge.Block.program ->
  Trips_tir.Image.t ->
  entry:string ->
  args:Trips_tir.Ty.value list ->
  result

val ipc : result -> float
(** Executed instructions per cycle (the metric of Fig 9). *)

val useful_ipc : result -> float

val avg_window : result -> float
(** Average instructions in flight (Fig 6). *)

val avg_window_useful : result -> float

(** {1 Engine hooks}

    The whole-program driver and the per-instance machinery, exposed for
    {!Trips_sim.Sampled}, which alternates detailed instances with
    functional warming, and for benchmarks that time the dataflow timer
    on its own.  The records are Core's internal representation: treat
    them as read-mostly. *)

type node
(** A block as the next-block predictor sees it: its interned id, its
    exits and their successor nodes; a label with no block has a node of
    its own. *)

type control
(** The predictor replay: the next-block predictor, one {!node} per block
    of {!Trips_edge.Exec.blocks}, and the shadow call stack. *)

val make_control : config -> Trips_edge.Block.program -> control
(** A fresh predictor over the program's successor graph: everything
    {!predict_next} reads and nothing a timing run needs beyond it.
    Every exit's successors are resolved here, by label; a label defined
    twice names its later block, as in {!Trips_edge.Exec.run}. *)

val follow_exit : control -> Trips_edge.Exec.instance -> int
(** Follow the instance's exit (maintaining the shadow call stack) and
    train the next-block predictor with it.  Returns the successor's
    predictor id, or -1 for a return with an empty shadow stack or a call
    to an unknown function.
    @raise Invalid_argument if the instance's exit is not a branch of
    its block. *)

val predict_next : control -> Trips_edge.Exec.instance -> bool
(** Predict the next block from the instance's block, then
    {!follow_exit}: whether the prediction named the successor.  The
    static timing analyzer replays the predictor with this. *)

type plan = {
  p_node : node;                     (* the block's predictor node *)
  p_addr : int;                      (* code address *)
  p_bytes : int;                     (* compressed footprint *)
  p_n : int;
  p_pos : (int * int) array;         (* per-inst ET mesh position *)
  p_tile : int array;                (* per-inst ET index *)
  p_need : int array;                (* operand arity + predicate slot *)
  p_lat : int array;                 (* Isa.latency per instruction *)
  p_kind : int array;                (* alu / load / store / branch code *)
  p_lsid : int array;                (* loads and stores; -1 otherwise *)
  p_wait : int array;                (* Depend site id of the wait check *)
  p_viol : int array;                (* Depend site id of violation learning *)
  p_toff : int array;                (* n+1 offsets into p_tgt *)
  p_tgt : int array;
  p_wreg : int array;                (* per To_write occurrence: arch reg *)
  p_wpos : (int * int) array;        (* and its RT mesh position *)
  p_disp : int array;                (* dispatch offset: 1 + i / rate *)
  p_disp_done : int;                 (* offset of last dispatch *)
  p_zero : int array;                (* indices with p_need = 0, ascending *)
  p_rd_reg : int array;              (* read slots: arch reg *)
  p_rd_pos : (int * int) array;      (* and its RT mesh position *)
  p_roff : int array;                (* reads+1 offsets into p_rtgt *)
  p_rtgt : int array;
  p_tvar : int array;                (* per p_tgt entry: variant base *)
  p_tci : int array;                 (* per p_tgt entry: message class *)
  p_dtvar : int array;               (* per inst: ET->DT variant base, -1 *)
  p_brvar : int array;               (* per branch inst: ET->GT variant, -1 *)
  p_rvar : int array;                (* per p_rtgt To_inst entry: RT->ET *)
  p_voff : int array;
  p_vlen : int array;
  p_paths : int array;
  p_obs : block_obs;                 (* measured profile, updated in place *)
}

type scratch
(** Per-instance scratch state of the dataflow timer. *)

type sim = {
  cfg : config;
  ctl : control;                     (* the next-block predictor's state *)
  dep : Trips_predictor.Depend.t;
  opn : Trips_noc.Opn.t;
  l1d : Trips_mem.Cache.t;
  l1i : Trips_mem.Cache.t;
  l2 : Trips_mem.Cache.t;
  mutable dram_free_at : int;
  st : stats;
  plans : plan array;                (* indexed by [Exec.instance.iindex] *)
  dt_pos : (int * int) array;
  scratch : scratch;
  mutable reg_ready : int array;
  mutable prev : prev option;
  mutable last_commit : int;
  mutable commits : int array;
  mutable seq : int;
  mutable infl_fetch : int array;
  mutable infl_commit : int array;
  mutable infl_size : int array;
  mutable infl_head : int;
  mutable infl_len : int;
  mutable infl_insts : int;
}

and prev = {
  mutable p_fetch : int;
  mutable p_resolve : int;
  mutable p_correct : bool;
  mutable p_kind : Trips_predictor.Blockpred.kind;
}
(** The previous instance, updated in place by {!step_instance}. *)

type btime = private {
  mutable bt_resolve : int;          (* branch resolution at the GT *)
  mutable bt_done : int;             (* all outputs produced *)
  mutable bt_flushed : bool;
}
(** The dataflow timer's result for one instance.  {!interp_time}
    returns one record, owned by the sim's scratch and overwritten by its
    next call, so timing an instance allocates nothing: read it before
    timing the next. *)

type time_fn = sim -> plan -> Trips_edge.Exec.instance -> dispatch_start:int -> btime
(** The dataflow portion of one block instance. *)

val interp_time : time_fn
(** The dataflow timer [run] uses. *)

val make_sim : ?config:config -> Trips_edge.Block.program -> sim
(** Static planning ({!make_control}, then one timing plan per block)
    plus fresh model state; [run] is [drive] over this. *)

val step_instance : sim -> time:time_fn -> plan -> Trips_edge.Exec.instance -> unit
(** Fetch scheduling, I-cache, [time], commit, register availability,
    prediction and occupancy accounting for one committed instance.
    First raises the operand network's floor ({!Trips_noc.Opn.set_floor})
    to the instance's fetch cycle: fetch cycles strictly increase, and
    every message of an instance is sent at or after its fetch. *)

val collect_result : sim -> Trips_edge.Exec.result -> result

val drive :
  ?fuel:int ->
  sim ->
  time:time_fn ->
  Trips_edge.Block.program ->
  Trips_tir.Image.t ->
  entry:string ->
  args:Trips_tir.Ty.value list ->
  result
(** [run] with the model state and the dataflow timer supplied by the
    caller. *)
