(** Linked memory image of a TIR program.

    Assigns addresses to globals (from a fixed base, respecting alignment),
    applies initializers, and provides byte-addressed typed access.  One image
    type is shared by the interpreter, the EDGE functional executor, the RISC
    simulator and the cycle-level models, so data layout — and therefore cache
    behaviour — is identical across pipelines. *)

type t

val build : ?mem_kb:int -> Ast.global list -> t
(** Lay out globals and allocate the backing store.  [mem_kb] defaults to the
    globals footprint plus a 256 KB slack region (stack + scratch). *)

val addr_of : t -> string -> int
(** Base address of a global.  @raise Not_found for unknown symbols. *)

val layout : Ast.global list -> (string * int) list
(** Pure layout computation (the same one {!build} applies), so compilers can
    resolve symbols without allocating a backing store. *)

val size : t -> int
val stack_base : t -> int
(** Top-of-memory stack pointer for the RISC ABI (grows down). *)

val copy : t -> t
(** Deep copy, so multiple simulations can start from the same initial
    image. *)

val load : t -> Ty.t -> Ty.width -> int -> Ty.value
(** Little-endian load; sub-word integer loads zero-extend (like PowerPC
    lbz/lhz).  Use an explicit [Sext] for signed narrow data.  Float loads
    require width 8.
    @raise Semantics.Trap on out-of-range access. *)

val store : t -> Ty.width -> int -> Ty.value -> unit
(** Truncating little-endian store. @raise Semantics.Trap on range error. *)

val load_u : t -> Ty.width -> int -> int64
(** Zero-extending raw load (no float view). *)

val load_lane : t -> Ty.width -> int -> Bytes.t -> int -> unit
(** [load_lane t w addr lane k]: {!load_u} into slot [k] of a value lane
    (bytes [8k .. 8k + 7] of [lane], little-endian; see
    {!Semantics.binop_lanes}), without boxing.
    @raise Semantics.Trap on out-of-range access. *)

val store_lane : t -> Ty.width -> int -> Bytes.t -> int -> unit
(** [store_lane t w addr lane k]: {!store} of slot [k]'s 64 bits.
    @raise Semantics.Trap on out-of-range access. *)

val equal : t -> t -> bool
(** Byte equality of the whole image — the integration tests' final check. *)

val checksum : t -> int64
(** FNV-style checksum over the program-data region (up to the end of
    the globals); the stack/scratch area above it is excluded since
    different ABIs legitimately use it differently. *)
