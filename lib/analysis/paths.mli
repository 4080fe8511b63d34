(** Predicate-path enumeration for one EDGE block.

    Enumerates the feasible assignments of truth values to the block's
    predicate producers, together with the set of instructions that fire
    under each assignment — mirroring the dataflow firing rule of
    {!Trips_edge.Exec}: an instruction fires when its predicate condition
    holds and every required operand port has a fired producer. *)

type producer = Read of int | Inst of int

type path = {
  assign : (int * bool) list;   (* predicate producer -> delivered truth *)
  fires : bool array;           (* per instruction *)
  fire_order : int list;        (* a valid dataflow firing order *)
}

val default_max_paths : int

val pp_assign : (int * bool) list -> string
(** Human-readable rendering, e.g. ["path I3=T,I7=F"]. *)

val port_map :
  Trips_edge.Block.t -> (int * Trips_edge.Isa.slot, producer list) Hashtbl.t
(** Producers per (instruction, port), including read slots. *)

val enumerate :
  ?max_paths:int -> Trips_edge.Block.t -> path list * bool
(** All feasible paths of the block; the flag is true when enumeration hit
    the [max_paths] cap and the list is incomplete. *)

val null_kinds : Trips_edge.Block.t -> path -> bool array
(** Per-instruction: does the instruction deliver a null token on this
    path (a [Null] producer, propagated through movs)? *)
