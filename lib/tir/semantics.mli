(** Single definition of operator semantics.

    The TIR interpreter, the EDGE functional executor and the RISC functional
    simulator all evaluate operators through this module, so a benchmark's
    golden result is the same value no matter which pipeline produced it —
    the property the integration tests check.

    Each operator is written once, as a kernel over unboxed [int64] and
    [float] operands.  Two entry points share the kernels: one over boxed
    {!Ty.value}s ({!binop}, {!unop}) for the interpreter, the RISC
    simulator and the optimizers' constant folding, and one over value
    lanes ({!binop_lanes}, {!unop_lanes}) for the EDGE emulator, which
    neither boxes nor allocates. *)

exception Trap of string
(** Raised on division by zero, misaligned/out-of-range access, exhausted
    fuel, and other unrecoverable conditions. *)

val binop : Ast.binop -> Ty.value -> Ty.value -> Ty.value
(** Shift amounts are taken mod 64; [Div]/[Rem] by zero raise {!Trap}.
    Float comparisons follow [Float.compare], a total order in which
    [nan] equals itself and sorts below every other float.  An operand of
    the wrong type raises [Invalid_argument] from {!Ty.as_int} or
    {!Ty.as_float}.  The second operand is checked first: [Div]/[Rem]
    check it, then test it for zero, then check the first. *)

val unop : Ast.unop -> Ty.value -> Ty.value

(** {1 Value lanes}

    A lane stores values unboxed, slot by slot: slot [k]'s 64 bits are
    bytes [8k .. 8k + 7] of a [Bytes.t] (little-endian; an integer as is,
    a float as its IEEE bits) and its tag is element [k] of an [int
    array].  A slot tagged {!tag_null} holds a null token, which no
    operator takes: the caller rejects it before calling. *)

val tag_int : int
val tag_float : int
val tag_null : int

val binop_lanes : Ast.binop -> Bytes.t -> int array -> int -> int -> int -> unit
(** [binop_lanes op bits tags d a b] is [binop op] of slots [a] and [b],
    written to slot [d] (which may be [a] or [b]): the same result bits
    and tag, or the same exception, raised in the same order, as {!binop}
    on the slots' values.  [a] and [b] must be tagged {!tag_int} or
    {!tag_float}. *)

val unop_lanes : Ast.unop -> Bytes.t -> int array -> int -> int -> unit
(** [unop_lanes op bits tags d a]: {!unop} from slot [a] to slot [d],
    under {!binop_lanes}' contract. *)

val zext : Ty.width -> int64 -> int64
(** Zero-extend the low bytes. *)
