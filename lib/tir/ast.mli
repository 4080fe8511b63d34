(** Abstract syntax of TIR programs, with an authoring EDSL.

    Benchmarks in {!Trips_workloads} are written against this module.  The
    AST is structured (no gotos); {!Lower} turns it into the control-flow
    graph that the optimizers and backends consume. *)

type binop =
  (* 64-bit integer *)
  | Add | Sub | Mul | Div | Rem
  | And | Or | Xor | Shl | Lsr | Asr
  | Eq | Ne | Lt | Le | Gt | Ge          (* signed compares, produce 0/1 *)
  | Ult | Ule                             (* unsigned compares *)
  (* double-precision float *)
  | Fadd | Fsub | Fmul | Fdiv
  | Feq | Fne | Flt | Fle | Fgt | Fge     (* produce integer 0/1 *)

type unop =
  | Neg | Not                 (* integer negate / bitwise not *)
  | Fneg
  | Itof | Ftoi               (* conversions *)
  | Sext of Ty.width          (* sign-extend the low bytes *)
  | Zext of Ty.width          (* zero-extend the low bytes *)

type expr =
  | Int of int64
  | Flt of float
  | Var of string                         (* local or parameter *)
  | Glo of string                         (* address of a global symbol *)
  | Bin of binop * expr * expr
  | Un of unop * expr
  | Load of Ty.t * Ty.width * expr        (* typed load from address *)
  | Call of string * expr list            (* call returning a value *)

type stmt =
  | Let of string * expr                  (* assign a local *)
  | Store of Ty.width * expr * expr       (* [Store (w, addr, value)] *)
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | For of string * expr * expr * int64 * stmt list
      (* [For (i, lo, hi, step, body)]: i from lo while (step>0 ? i<hi : i>hi),
         i += step each iteration.  [step] must be a nonzero constant. *)
  | Expr of expr                          (* evaluate for effect (calls) *)
  | Return of expr option

type func = {
  fname : string;
  params : (string * Ty.t) list;
  ret : Ty.t option;
  body : stmt list;
}

(** A global's initializer: a sequence of cells, each a width and a
    64-bit value, laid out one after another from the global's address,
    each as the low [width] bytes of its value, little-endian.

    The cells are packed into two strings, one width byte per cell and
    8 value bytes per cell, so a workload's input arrays cost two heap
    blocks rather than a boxed tuple and a boxed [int64] per element
    (the registry holds about 340k cells).  A value is kept whole, so a
    cell whose value does not fit its width, such as [(W1, 300L)], reads
    back exactly; only {!blit} truncates.  Equal cell sequences give
    equal [t]s under [=] and [Marshal]. *)
module Init : sig
  type t

  val of_cells : (Ty.width * int64) array -> t

  val init : Ty.width -> int -> (int -> int64) -> t
  (** [init w n f]: [n] cells of width [w], cell [k] holding [f k].  [f]
      is called for [k = 0, 1, ..., n - 1] in that order, so a generator
      drawn from inside [f] yields the same cells as an [Array.init]. *)

  val length : t -> int
  val iter : (Ty.width -> int64 -> unit) -> t -> unit
  (** In cell order. *)

  val cells : t -> (Ty.width * int64) array
  (** Inverse of {!of_cells}. *)

  val blit : t -> Bytes.t -> int -> unit
  (** [blit t mem addr] writes the cells' low bytes to [mem] from [addr]
      on, in order, with one copy per run of [W8] cells and no
      allocation.
      @raise Invalid_argument if they run past the end of [mem]. *)
end

type global = {
  gname : string;
  size : int;                             (* bytes *)
  align : int;
  init : Init.t option;                   (* optional packed initializer *)
}

type program = { globals : global list; funcs : func list }

val func : string -> ?params:(string * Ty.t) list -> ?ret:Ty.t -> stmt list -> func
val global : string -> ?align:int -> ?init:Init.t -> int -> global
val program : ?globals:global list -> func list -> program

val find_func : program -> string -> func
(** @raise Not_found if absent. *)

val binop_name : binop -> string

val commutative : binop -> bool
(** Operators whose operands may be swapped ([Fadd] and [Fmul] up to the
    payload bits of a NaN result).  The EDGE converter swaps a
    small constant into the immediate field on exactly this set, and the
    validator's terms canonicalize operand order on it, so the two agree
    by construction. *)

val unop_name : unop -> string

val pp_func : Format.formatter -> func -> unit

val pp_global : Format.formatter -> global -> unit

val pp : Format.formatter -> program -> unit
(** Stable, parse-free textual form of a whole program (globals then
    functions).  Used for fuzz corpus entries and shrinker logs. *)

val pp_program : Format.formatter -> program -> unit
(** Alias of {!pp}. *)

val to_string : program -> string

(** Infix/constructor helpers used throughout the workload suite. *)
module Infix : sig
  val i : int -> expr                     (* integer literal *)
  val i64 : int64 -> expr
  val f : float -> expr
  val v : string -> expr                  (* variable reference *)
  val g : string -> expr                  (* global address *)

  val ( +: ) : expr -> expr -> expr
  val ( -: ) : expr -> expr -> expr
  val ( *: ) : expr -> expr -> expr
  val ( /: ) : expr -> expr -> expr
  val ( %: ) : expr -> expr -> expr
  val ( &: ) : expr -> expr -> expr
  val ( |: ) : expr -> expr -> expr
  val ( ^: ) : expr -> expr -> expr
  val ( <<: ) : expr -> expr -> expr
  val ( >>: ) : expr -> expr -> expr      (* logical shift right *)
  val ( >>>: ) : expr -> expr -> expr     (* arithmetic shift right *)
  val ( =: ) : expr -> expr -> expr
  val ( <>: ) : expr -> expr -> expr
  val ( <: ) : expr -> expr -> expr
  val ( <=: ) : expr -> expr -> expr
  val ( >: ) : expr -> expr -> expr
  val ( >=: ) : expr -> expr -> expr

  val ( +.: ) : expr -> expr -> expr
  val ( -.: ) : expr -> expr -> expr
  val ( *.: ) : expr -> expr -> expr
  val ( /.: ) : expr -> expr -> expr
  val ( <.: ) : expr -> expr -> expr
  val ( <=.: ) : expr -> expr -> expr
  val ( >.: ) : expr -> expr -> expr
  val ( =.: ) : expr -> expr -> expr

  val ld8 : expr -> expr                  (* i64 load, 8 bytes *)
  val ld2 : expr -> expr
  val ld1 : expr -> expr
  val ldf : expr -> expr                  (* f64 load *)
  val st8 : expr -> expr -> stmt
  val st2 : expr -> expr -> stmt
  val st1 : expr -> expr -> stmt
  val stf : expr -> expr -> stmt          (* f64 store (width 8) *)

  val set : string -> expr -> stmt
  val if_ : expr -> stmt list -> stmt list -> stmt
  val while_ : expr -> stmt list -> stmt
  val for_ : string -> expr -> expr -> stmt list -> stmt
      (* step 1 loop *)
  val for_step : string -> expr -> expr -> int64 -> stmt list -> stmt
  val ret : expr -> stmt
  val call : string -> expr list -> expr
end
