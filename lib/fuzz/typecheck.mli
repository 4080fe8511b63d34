(** Well-typedness checker and size metrics for TIR ASTs.

    The fuzzer's generator guarantees every emitted program passes [check];
    the shrinker uses it to reject candidates that would break typing, and
    the size metrics define the strict-decrease order the shrinker walks. *)

val check : Trips_tir.Ast.program -> (unit, string) result
(** Flow-sensitive well-typedness: every variable use is definitely
    assigned (branch-insensitive: [If] joins by intersection, loop-body
    definitions are discarded), every variable keeps a single type per
    function, operators/loads/stores/calls are applied at the right types,
    globals referenced by [Glo] exist, and [For] steps are nonzero. *)

val size_expr : Trips_tir.Ast.expr -> int

val size_program : Trips_tir.Ast.program -> int
(** Total AST node count (statements + expression nodes + globals and
    their initializer cells); the measure the shrinker strictly
    decreases. *)

val stmt_count : Trips_tir.Ast.program -> int
(** Number of statements (including nested ones) across all functions. *)
