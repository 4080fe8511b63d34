(** The EDGE instruction set of the TRIPS prototype.

    Programs are sequences of {e blocks} executed atomically (§2 of the
    paper): a block is fetched, executed in dataflow order, and committed as
    a unit.  Instructions inside a block carry their consumers ({e targets})
    instead of register names; inter-block communication goes through up to
    32 register reads and 32 register writes in the block header, and memory
    through load/store instructions identified by sequence numbers (LSIDs).

    Encoding limits mirror the prototype: at most {!max_insts} instructions,
    {!max_reads}/{!max_writes} header slots, {!max_lsids} memory operations
    and {!max_exits} branches per block; a 32-bit instruction has room for at
    most two targets, so wider fanout needs [mov] trees. *)

(* Prototype limits: 128 instructions, 32 reads, 32 writes, 32 LSIDs,
   8 exits, 128 architectural registers in 4 banks. *)
val max_insts : int
val max_reads : int
val max_writes : int
val max_lsids : int
val max_exits : int
val num_regs : int

(* Execution-tile mesh geometry (single source of truth for the scheduler,
   the default placement and the block validator): a 4x4 ET grid with 8
   reservation-station slots per tile per block. *)
val num_ets : int
val et_slots : int

(** Physical (row, col) positions on the 5x5 OPN mesh: row 0 holds the
    global tile and the four register tiles, column 0 the four data tiles,
    the inner 4x4 the execution tiles.  Single source of truth shared by
    the scheduler ({!Trips_compiler.Schedule}), the cycle-level simulator
    and the static timing analyzer. *)
val tile_position : int -> int * int
val rt_position : int -> int * int
val dt_position : int -> int * int
val gt_position : int * int
val num_dt_banks : int

val mesh_dist : int * int -> int * int -> int
(** Manhattan distance between two mesh positions = uncontended OPN hops. *)

type slot = Op0 | Op1 | OpPred
(** Operand ports of a consumer instruction. *)

type target =
  | To_inst of int * slot   (* deliver to instruction [i]'s port *)
  | To_write of int         (* deliver to write slot [w] *)

type predication =
  | Unpred
  | On_true of int          (* fire iff instruction [i] delivers nonzero *)
  | On_false of int         (* fire iff instruction [i] delivers zero *)
(** The producer index is recorded for validation/placement; at run time the
    predicate arrives on the [OpPred] port like any operand. *)

type exit_dest =
  | Xjump of string                 (* next block label *)
  | Xcall of string * string        (* callee entry label, return block label *)
  | Xret

type opcode =
  | Bin of Trips_tir.Ast.binop      (* ALU and FPU operations, incl. tests *)
  | Un of Trips_tir.Ast.unop
  | Geni of int64                   (* integer constant generation *)
  | Genf of float                   (* float constant generation *)
  | Mov                             (* operand fanout / predicate merge *)
  | Null                            (* produce a null token *)
  | Load of Trips_tir.Ty.t * Trips_tir.Ty.width * int   (* lsid *)
  | Store of Trips_tir.Ty.width * int                   (* lsid *)
  | Branch of exit_dest

type inst = {
  op : opcode;
  pred : predication;
  imm : int64 option;
  (* immediate second operand (Bin) or address displacement (memory ops) *)
  targets : target list;            (* at most two *)
}

(** Instruction classes used by the paper's composition figures (Fig 3). *)
type klass = Karith | Kmemory | Kcontrol | Ktest | Kmove

val classify : opcode -> klass
val is_test : Trips_tir.Ast.binop -> bool
(** Comparison operators are the ISA's test instructions. *)

val operand_arity : inst -> int
(** Dataflow operands the instruction must receive (0, 1 or 2), excluding
    the predicate. *)

val latency : opcode -> int
(** Execution latency in cycles used by the cycle-level model (single-cycle
    integer ops, pipelined multi-cycle multiply/divide/FP, cache-hit loads
    get their latency from the memory model instead). *)

val slot_name : slot -> string
val pp_inst : Format.formatter -> inst -> unit
val pp_target : Format.formatter -> target -> unit
