(** Spatial instruction placement (the compiler's scheduler, [2]).

    Assigns each instruction of a block to one of the 16 execution tiles
    (8 reservation stations per tile per block).  The greedy placer walks
    instructions in dataflow-topological order and puts each one where the
    operand-network distance to its producers — plus affinity to the data
    tiles for memory operations, the register tiles for header traffic and
    the global tile for branches — is smallest, balancing tile occupancy.
    This is the optimization whose quality the OPN hop profile of Fig 8
    measures. *)

val place : Trips_edge.Block.t -> unit
(** Fill [block.placement] in place. *)

val place_program : Trips_edge.Block.program -> unit
