(** Deterministic input-data construction for the benchmark suite.

    Input arrays are baked into the program image as initialized globals
    (zero setup instructions), generated from fixed seeds so every pipeline
    sees identical data.  Address helpers keep the TIR benchmark sources
    readable. *)

val ints : string -> ?seed:int64 -> ?lo:int -> ?hi:int -> int -> Trips_tir.Ast.global
(** [ints name n] — n 64-bit integers uniform in [lo,hi] (default 0..255). *)

val ints_f : string -> int -> (int -> int64) -> Trips_tir.Ast.global
(** Initialized from an explicit generator function. *)

val floats : string -> ?seed:int64 -> ?scale:float -> int -> Trips_tir.Ast.global
(** n doubles uniform in [0, scale) (default scale 1.0). *)

val floats_f : string -> int -> (int -> float) -> Trips_tir.Ast.global

val bytes_ : string -> ?seed:int64 -> int -> Trips_tir.Ast.global
(** n random bytes. *)

val zeros : string -> int -> Trips_tir.Ast.global
(** n zeroed 64-bit words (output buffers). *)

(** TIR address expressions for element access. *)
val elt8 : string -> Trips_tir.Ast.expr -> Trips_tir.Ast.expr
(** [elt8 g k] = address of the k-th 8-byte element of global [g]. *)

val elt1 : string -> Trips_tir.Ast.expr -> Trips_tir.Ast.expr
