(** TRIPS blocks, functions and whole programs, with static validation.

    A block aggregates up to 128 dataflow instructions plus header read and
    write slots.  [placement] records the execution tile chosen for each
    instruction by the scheduler (16 tiles, 8 reservation stations each, as
    in the prototype). *)

type read = {
  rreg : int;                    (* architectural register, 0..127 *)
  rtargets : Isa.target list;    (* at most two *)
}

type write = { wreg : int }

type t = {
  label : string;
  reads : read array;
  writes : write array;
  insts : Isa.inst array;
  mutable placement : int array; (* instruction index -> ET id (0..15) *)
}

type func = {
  fname : string;
  entry : string;               (* entry block label *)
  blocks : t list;
}

type program = {
  globals : Trips_tir.Ast.global list;
  funcs : func list;
}

val find_func : program -> string -> func
val find_block : func -> string -> t

val exits : t -> (int * Isa.exit_dest) list
(** Branch instructions of the block: (instruction index, destination). *)

val num_lsids : t -> int
(** Number of distinct LSIDs used by the block's memory instructions. *)

val default_placement : t -> unit
(** Round-robin placement used before the real scheduler runs. *)

exception Invalid of string * string  (* block label, reason *)

val validate : t -> unit
(** Check every prototype block constraint: size and header limits, target
    well-formedness (port arity, range), predicate producers, write-slot
    producers, LSID limits, at least one and at most eight exits.
    @raise Invalid with the offending block and reason. *)

val validate_program : program -> unit
(** Validate every block, plus inter-block checks: entry labels exist and
    every exit destination resolves. *)

val pp : Format.formatter -> t -> unit
val pp_program : Format.formatter -> program -> unit

val size_stats : t -> int * int * int * int
(** (instructions, reads, writes, exits) of a block. *)
