(** The four hand-optimized scientific kernels of the paper (§3, Table 2):
    matrix transpose (ct), convolution (conv), vector add (vadd) and dense
    matrix multiply (matrix).  [vadd_hand_edge] is genuinely hand-written
    EDGE code (the paper hand-placed vadd and matrix), used by the Fig 8
    bandwidth/OPN study. *)

val ct : Trips_tir.Ast.program
val conv : Trips_tir.Ast.program
val vadd : Trips_tir.Ast.program
val matrix : Trips_tir.Ast.program

val vadd_hand_edge : Trips_edge.Block.program
(** Hand-scheduled vadd: eight elements per 128-instruction block, addresses
    streamed through immediate displacements, saturating the four D-cache
    banks as in Fig 8's bandwidth table. *)
