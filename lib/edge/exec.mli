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
    trace into the cycle-level simulator. *)

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
  fired : bool array;            (* instruction fired *)
  useful : bool array;           (* fired and on a path to a block output *)
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
    are placed in the argument registers of the EDGE ABI ({!abi_arg_regs});
    the result is taken from {!abi_ret_reg}.  [fuel] bounds total fired
    instructions (default 400 million).  [on_instance] sees every
    committed block instance after its stores and register writes.
    @raise Stuck as described above. *)

val abi_ret_reg : int
val abi_arg_regs : int list
