(** Source-level (AST) transformations.

    The paper's hand-optimized benchmarks differ from compiled ones mostly by
    "largely mechanical" source restructurings — deeper unrolling, inlining,
    loop fusion (§7).  We implement the mechanical ones here; compiler presets
    ({!Trips_compiler.Driver}) choose how aggressively to apply them. *)

val unroll : factor:int -> Ast.func -> Ast.func
(** Unroll counted [For] loops by [factor] where legal: the bound must be
    invariant in the body and the body must not reassign the index.  A
    remainder loop keeps semantics exact for any trip count.  Only innermost
    loops are unrolled (outer unrolling would grow code by factor^depth);
    loops that fail the legality check are left untouched. *)

val inline : Ast.program -> Ast.program
(** Inline calls to straight-line callees (no loops or early returns, a
    single trailing [Return]).  Recursive and indirect cycles are skipped. *)

val unroll_program : factor:int -> Ast.program -> Ast.program

val reassociate : Ast.func -> Ast.func
(** Tree-height reduction (the paper's TRIPS-specific optimization, §2):
    an innermost counted loop whose body accumulates [acc = acc + e] is
    split over four interleaved partial accumulators combined after the
    loop, cutting the loop-carried dependence height by 4x.  Applied at
    the source level so every pipeline computes the identical (changed)
    floating-point association; loops failing the legality checks are
    untouched. *)

val reassociate_program : Ast.program -> Ast.program
