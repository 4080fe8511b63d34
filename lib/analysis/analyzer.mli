(** EDGE block & program static analyzer.

    Runs every pass over compiled {!Trips_edge.Block} programs and returns
    structured {!Diag.t} findings:

    - {!Structure}: encoding limits, LSID range/uniqueness, target and
      port/arity well-formedness, placement geometry;
    - {!Dataflow_checks}: predicate-path enumeration — exactly one exit
      per path, store completion, write-slot delivery, port conflicts,
      null-token flow, dataflow deadlock, dead code;
    - {!Liveness}: branch-target resolution, reachability, cross-block
      use-before-def and dead writes. *)

type options = { max_paths : int }

val analyze_block :
  ?options:options -> fname:string -> Trips_edge.Block.t -> Diag.t list

val analyze_func :
  ?options:options ->
  ?known_funcs:string list ->
  Trips_edge.Block.func ->
  Diag.t list
(** Per-block passes plus intra-function CFG passes.  Callee resolution is
    skipped unless [known_funcs] is given. *)

val analyze_program :
  ?options:options -> Trips_edge.Block.program -> Diag.t list

val classes : Diag.t list -> string list
(** Distinct diagnostic classes present, sorted. *)

val has_class : string -> Diag.t list -> bool

val summary : Diag.t list -> string
