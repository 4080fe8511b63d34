(** Single definition of operator semantics.

    The TIR interpreter, the EDGE functional executor and the RISC functional
    simulator all evaluate operators through this module, so a benchmark's
    golden result is the same value no matter which pipeline produced it —
    the property the integration tests check. *)

exception Trap of string
(** Raised on division by zero, misaligned/out-of-range access, exhausted
    fuel, and other unrecoverable conditions. *)

val binop : Ast.binop -> Ty.value -> Ty.value -> Ty.value
(** Shift amounts are taken mod 64; [Div]/[Rem] by zero raise {!Trap}.
    Float comparisons follow [Float.compare], a total order in which
    [nan] equals itself and sorts below every other float. *)

val unop : Ast.unop -> Ty.value -> Ty.value

val sext : Ty.width -> int64 -> int64
(** Sign-extend the low bytes. *)

val zext : Ty.width -> int64 -> int64
(** Zero-extend the low bytes. *)
