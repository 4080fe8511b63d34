(** Functional (architectural) executor for EDGE programs.

    Runs a {!Block.program} block by block with exact dataflow-firing
    semantics: reads inject register values, instructions fire when their
    operands (and matching predicate) arrive, loads wait for all
    lower-LSID stores, and a block commits once every write slot, every
    LSID and exactly one branch have produced outputs — the block-atomic
    contract of §2.

    Besides the architectural result, the executor produces the dynamic
    statistics behind the paper's ISA evaluation (Figs 3–5): per-class
    fired counts, fetched-but-not-executed and executed-but-not-used
    instructions, read/write/store/load counts, and operand-delivery
    traffic split by tile class.  It can also stream a per-block-instance
    trace into the cycle-level simulator.

    Which instructions of a block instance fire, and in what order,
    depends only on how its predicates resolve.  The first instance of
    each such shape runs the general dataflow engine, which records the
    shape's schedule; later instances of the shape replay it, computing
    only the values.  The results are the same either way.

    Values live unboxed in lanes ({!Trips_tir.Semantics}' layout: 64 bits
    per slot in a [Bytes.t], a tag per slot in an [int array]).  Each
    instruction is decoded once per run into an operation code with its
    immediate, and firing it moves bits from lanes to lanes without
    allocating: operators go through {!Trips_tir.Semantics.binop_lanes}
    and [unop_lanes], loads and stores through
    {!Trips_tir.Image.load_lane} and [store_lane].  A fire fails the same
    way, in the same order, on either engine and as it did over boxed
    values: a null operand raises {!Stuck} ["null operand in ALU op"]
    (op0 checked before op1) and a load's null address base ["null token
    in arithmetic"] (a store with a null operand is nullified instead);
    then the operator's own exceptions, in
    {!Trips_tir.Semantics.binop}'s order ([Invalid_argument] from
    {!Trips_tir.Ty.as_int}/[as_float] for an operand of the wrong type,
    {!Trips_tir.Semantics.Trap} for a zero divisor); then
    {!Trips_tir.Semantics.Trap} for an access out of range. *)

type mem_event = {
  ev_inst : int;                 (* instruction index in the block *)
  ev_lsid : int;
  ev_is_load : bool;
  ev_addr : int;
  ev_width : Trips_tir.Ty.width;
  ev_null : bool;                (* nullified store: completes, no memory *)
}

type instance = {
  iblock : Block.t;
  iindex : int;
      (* [iblock]'s index in {!blocks} *)
  fired : bool array;            (* instruction fired *)
  useful : bool array;           (* fired and on a path to a block output *)
      (* [fired] and [useful] are shared by every instance of the same
         shape within one {!run}: read them, never write them *)
  exit_inst : int;               (* index of the branch that fired *)
  exit_dest : Isa.exit_dest;
  mem_events : mem_event list;   (* in LSID order *)
}

type stats = {
  mutable blocks : int;              (* block instances committed *)
  mutable fetched : int;             (* block size summed over instances *)
  mutable executed : int;            (* instructions fired *)
  mutable not_executed : int;        (* fetched but never fired *)
  mutable executed_not_used : int;   (* fired, off every output path *)
  mutable useful : int;              (* fired, used, not a move/null *)
  mutable k_arith : int;
  mutable k_memory : int;
  mutable k_control : int;
  mutable k_test : int;
  mutable k_move : int;              (* fired moves + nulls *)
  mutable reads_fetched : int;
  mutable writes_committed : int;
  mutable stores_committed : int;    (* non-null stores *)
  mutable loads_executed : int;
  mutable opn_et_et : int;           (* operand deliveries inst->inst *)
  mutable opn_rt_et : int;           (* read injections *)
  mutable opn_et_rt : int;           (* write deliveries *)
  mutable opn_et_dt : int;           (* memory requests *)
  mutable opn_dt_et : int;           (* load data returns *)
  mutable opn_et_gt : int;           (* branch resolutions *)
  mutable flops : int;               (* floating-point operations fired *)
}

val empty_stats : unit -> stats

type result = {
  ret : Trips_tir.Ty.value option;
  stats : stats;
}

exception Stuck of string * string
(** (label, reason): a block deadlocked, finished without all of its
    outputs, ran out of fuel or is malformed (an LSID, target or write
    slot out of range), or control reached an unknown block or function
    ("unknown function f", labelled with the calling block, or with [f]
    itself for an unknown [~entry]). *)

val run :
  ?fuel:int ->
  ?on_instance:(instance -> unit) ->
  Block.program ->
  Trips_tir.Image.t ->
  entry:string ->
  args:Trips_tir.Ty.value list ->
  result
(** [run program image ~entry ~args] executes function [entry].  Arguments
    are placed in the argument registers of the EDGE ABI; the result is
    taken from its return register.  [fuel] bounds total fired
    instructions (default 400 million).  [on_instance] sees every
    committed block instance after its stores and register writes.
    @raise Stuck as described above. *)

val blocks : Block.program -> Block.t array
(** The program's blocks, function by function in program order: the
    order [run] dispatches by and {!instance.iindex} indexes.  A label
    defined twice names its later block, which is the only one [run]
    executes. *)
