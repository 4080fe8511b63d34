(** Hyperblock formation: from CFG basic blocks to TRIPS-block regions.

    Mirrors the TRIPS compiler's block former (§2, [11], [21]): basic blocks
    are merged into larger single-entry regions using if-conversion
    (producing the structured predication tree consumed by {!Dataflow}),
    straight-line concatenation, and implicit tail duplication (growing into
    a join block that other predecessors still reach separately duplicates
    its code).  Calls cut blocks: a call becomes a predicated call exit and
    the remainder of the block restarts at a fresh return label, which is why
    call-heavy code ends up with small blocks (§7).

    A resource budget bounds growth; the driver retries formation with a
    smaller budget when the materialized block overflows a hardware limit. *)

type item =
  | Ins of Trips_tir.Cfg.ins          (* never a [Call] *)
  | If of Trips_tir.Cfg.operand * item list * item list
  | Exit of exit_kind
  | Lbl of string
      (* semantics-free merge marker naming the CFG block the following
         items came from; consumed by the translation validator *)

and exit_kind =
  | Ejump of string
  | Ecall of string * string          (* callee function, return label *)
  | Eret

type hblock = {
  hlabel : string;
  body : item list;                   (* every path ends in exactly one Exit *)
}

type hfunc = {
  hname : string;
  hentry : string;
  hblocks : hblock list;
  pinned : (Trips_tir.Cfg.vreg * int) list;  (* ABI-pinned vregs -> arch regs *)
  hnvregs : int;
  hsynthetic : Trips_tir.Cfg.block list;
      (* call-continuation blocks minted during formation; resolves [Lbl]
         markers that do not name an original CFG block *)
}

type budget = {
  max_ins : int;        (* estimated instructions before merging stops *)
  max_mem : int;        (* estimated memory ops *)
  tail_dup : int;       (* max size of a multi-predecessor block to duplicate *)
  max_exits : int;
  if_convert : bool;    (* false = basic-block mode (Fig 7 configs A/B) *)
}

val default_budget : budget
val basic_block_budget : budget

val abi_ret : int
(** Architectural register pinned to the return value (r1). *)

val abi_args : int list
(** Architectural registers pinned to the arguments (r2..r9). *)

val form : budget -> Trips_tir.Cfg.func -> hfunc
(** @raise Failure on malformed input (e.g. more than 8 call arguments). *)

val body_defs : item list -> Trips_tir.Cfg.vreg list
(** May-defs: assigned on at least one path (the write-set candidates). *)

val prefix_defs : item list -> Trips_tir.Cfg.vreg list
(** Must-defs: assigned on every path to every exit (straight-line code
    plus both-arm intersections) — the only sound liveness kill set under
    predication. *)

val body_uses_before_def : item list -> Trips_tir.Cfg.vreg list
(** Vregs read on some path before any definition (live-in candidates). *)

val exits_of : hblock -> exit_kind list
val pp_hblock : Format.formatter -> hblock -> unit
