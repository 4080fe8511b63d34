(** The code-quality presets every command, serve verb and sweep names:
    the paper's compiled (C) and hand-optimized (H) code, plus the
    unoptimized (O0) and basic-block (BB) ablations. *)

type t = O0 | C | H | BB

val all : t list
(** [O0; C; H; BB], the order of every preset sweep. *)

val qualities : t list
(** [C; H]: the paper's two code qualities, which the execution-side
    commands and verbs model. *)

val name : t -> string
(** ["O0"], ["C"], ["H"] or ["BB"] (memo and cache keys, report fields). *)

val of_string : string -> t option
(** A preset's name or its {!Trips_compiler.Driver.preset} [pname]
    (["compiled"], ["hand"], ["basic-blocks"]), in any letter case. *)

val driver : t -> Trips_compiler.Driver.preset

val edge_program : t -> Registry.bench -> Trips_edge.Block.program
(** The EDGE program a preset runs: [H] takes the benchmark's hand-written
    EDGE program when it ships one; everything else is compiled with
    {!driver}.  Not memoized. *)
