(** Control-flow-graph form of TIR: three-address code over virtual registers.

    Both backends and all optimizer passes operate on this form.  Blocks are
    identified by string labels; a function has a distinguished entry block.
    Operands are virtual registers, constants, or unresolved global symbols
    (resolved to addresses by {!Image}). *)

type vreg = int

type operand =
  | Reg of vreg
  | Ci of int64              (* integer constant *)
  | Cf of float              (* float constant *)
  | Sym of string            (* address of a global, resolved at link time *)

type ins =
  | Bin of Ast.binop * vreg * operand * operand
  | Un of Ast.unop * vreg * operand
  | Mov of vreg * operand
  | Load of Ty.t * Ty.width * vreg * operand * int   (* dst <- [base + off] *)
  | Store of Ty.width * operand * int * operand      (* [base + off] <- value *)
  | Call of vreg option * string * operand list

type term =
  | Jmp of string
  | Br of operand * string * string   (* nonzero -> first label *)
  | Ret of operand option

type block = {
  label : string;
  mutable ins : ins list;
  mutable term : term;
}

type func = {
  name : string;
  mutable params : (vreg * Ty.t) list;
  ret : Ty.t option;
  mutable blocks : block list;       (* entry block first *)
  mutable next_vreg : int;
}

type program = { globals : Ast.global list; funcs : func list }

val fresh : func -> vreg
val entry : func -> block
val find_block : func -> string -> block
val successors : term -> string list

val defs : ins -> vreg list
val uses : ins -> operand list
val term_uses : term -> operand list

val map_ins_operands : (operand -> operand) -> ins -> ins
val map_term_operands : (operand -> operand) -> term -> term

val find_func : program -> string -> func
val add_ins : Buffer.t -> ins -> unit
val add_term : Buffer.t -> term -> unit
(** Append the text {!pp_ins} / {!pp_func} print for an instruction or
    terminator, without [Format]. *)

val pp_operand : Format.formatter -> operand -> unit
val pp_ins : Format.formatter -> ins -> unit
val pp_func : Format.formatter -> func -> unit
val pp_program : Format.formatter -> program -> unit

val pp : Format.formatter -> program -> unit
(** Stable, parse-free textual form including globals; counterpart of
    {!Ast.pp} for the lowered program. *)

val to_string : program -> string
