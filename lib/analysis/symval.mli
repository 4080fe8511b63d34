(** Shared symbolic term language for translation validation.

    Every side of a compiler pass (TIR regions, EDGE dataflow blocks,
    RISC instruction streams) evaluates into the same normalized term
    language, reducing semantic equivalence per predicate path to
    syntactic equality.  The smart constructors fold constants through
    {!Trips_tir.Semantics}, canonicalize commutative operands,
    re-associate constant address arithmetic and forward stores to
    loads.  See DESIGN.md §11. *)

module Ast = Trips_tir.Ast
module Ty = Trips_tir.Ty

type var =
  | Vreg of int  (** TIR virtual register *)
  | Varch of int  (** EDGE architectural register *)
  | Vint of int  (** RISC integer register *)
  | Vflt of int  (** RISC floating-point register *)
  | Vret of int * int  (** havoc result of call event [id]; channel 0/1 *)

type t =
  | Ci of int64
  | Cf of float  (** compared structurally; bit-sensitive uses wrap in [Fbits] *)
  | Var of var
  | Bin of Ast.binop * t * t
  | Un of Ast.unop * t
  | Fbits of t  (** [Int64.bits_of_float] *)
  | Fofbits of t  (** [Int64.float_of_bits] *)
  | Sel of Ty.t * Ty.width * t * mem  (** typed load from a memory chain *)

and mem =
  | Minit of int  (** named initial memory *)
  | Mstore of mem * Ty.width * t * t  (** older, width, address, raw bits *)
  | Mcall of int * mem  (** havoc barrier for call event [id] *)

val mem_program : int
val mem_stack : int

val equal : t -> t -> bool

val reset_intern : unit -> unit
(** Clear the calling domain's hash-consing tables (each domain interns
    into its own, so concurrent validations never share one).  Composite
    terms are interned so that structurally equal terms are physically
    equal and comparisons short-circuit on shared structure; call this
    between independent block checks to bound table growth.  Never
    affects correctness — terms from different intern generations still
    compare structurally. *)

val value_of : t -> Ty.value option
(** The concrete value of a constant term. *)

(** {1 Normalizing constructors} *)

val bin : Ast.binop -> t -> t -> t
val un : Ast.unop -> t -> t

val to_bits : t -> t
(** Raw bit pattern of a term, as [Image.store] would truncate it. *)

val store : mem -> Ty.width -> t -> t -> mem
(** [store m w addr raw] pushes a store; [raw] must be [to_bits]-wrapped. *)

val mcall : int -> mem -> mem
(** [mcall id m] pushes the havoc barrier of call event [id]. *)

val sel : Ty.t -> Ty.width -> t -> mem -> t
(** A load with store-forwarding over provably exact/disjoint stores. *)

val addr_parts : t -> t option * int64
(** Decompose an address into (symbolic root, constant offset). *)

(** {1 Path conditions} *)

type pc = (t * bool) list
(** Decisions taken so far: canonical condition key -> truthiness. *)

exception Fork of t
(** Raised by {!decide} on an undetermined condition key. *)

val decide : pc -> t -> bool
(** Truthiness of a condition under [pc]; raises {!Fork} when open. *)

(** {1 Concretization support} *)

val subst : (var -> t option) -> t -> t
(** Substitute variables and renormalize (folds fully when the
    substitution is total and constant). *)

val vars : var list -> t -> var list

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
