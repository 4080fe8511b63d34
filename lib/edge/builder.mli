(** Imperative construction of TRIPS blocks with automatic fanout.

    Producers are created first and wired to consumers with {!arc}; on
    {!finish} the builder assigns target lists and, where a producer has
    more than the two targets a 32-bit EDGE instruction can encode, inserts
    a balanced tree of [mov] instructions (§4.1: "the compiler must insert
    move instructions to fan out values").  Both the TRIPS compiler backend
    and the hand-optimized kernels build blocks through this interface, so
    fanout accounting is identical for compiled and hand code. *)

type t

type h
(** Handle to a value producer (instruction or read slot). *)

val create : string -> t
(** Start a block with the given label. *)

val inst : t -> ?pred:h * bool -> ?imm:int64 -> Isa.opcode -> h
(** Append an instruction.  [pred] predicates it on a producer's value being
    nonzero ([true]) or zero ([false]); the producer must be an instruction,
    not a read.  Loads and stores receive their LSID automatically in
    creation order unless the opcode already carries one >= 0. *)

val read : t -> int -> h
(** Read of an architectural register; one slot per distinct call. *)

val write : t -> int -> h list -> unit
(** Declare a register write slot fed by the given producers.  Several
    producers may feed the slot (predicated paths); exactly one must fire
    at run time. *)

val arc : t -> h -> h -> Isa.slot -> unit
(** Dataflow edge: producer [h] delivers to a consumer instruction's port.
    The consumer must be an instruction handle. *)

val id : h -> int
(** Stable identifier, unique among this block's handles; usable as a hash
    or memoization key. *)

val finish : t -> Block.t
(** Materialize the block: build fanout trees, lay out read/write slots,
    fill targets, and run {!Block.validate}.
    @raise Block.Invalid if the result violates a block constraint. *)
