(** Machine-independent CFG optimizations.

    These correspond to the "conventional optimizations" the TRIPS compiler
    applies before block formation (§2): constant folding, local value and
    copy propagation, local common-subexpression elimination, and dead-code
    elimination.  All passes are semantics-preserving (checked by the qcheck
    differential suite) and idempotent at fixpoint. *)

val constfold : Cfg.func -> unit
(** Fold operators whose operands are constants.  Folding never introduces a
    trap (division by a zero constant is left in place). *)

val copyprop : Cfg.func -> unit
(** Block-local value/copy propagation through [Mov]s. *)

val cse : Cfg.func -> unit
(** Block-local common-subexpression elimination over pure operators and
    loads (loads are killed by stores and calls). *)

val dce : Cfg.func -> unit
(** Remove pure instructions whose results are never used anywhere in the
    function. *)

val simplify_branches : Cfg.func -> unit
(** Turn branches on constants into jumps and drop unreachable blocks. *)

val run : Cfg.func -> unit
(** Fixpoint driver: apply the five passes above, in that order, until a
    round leaves the printed function ({!Cfg.pp_func}) unchanged, or a
    private safety bound far above any measured round count is reached. *)

val fingerprint : Cfg.func -> string
(** A text that two functions share exactly when {!Cfg.pp_func} prints
    them equally, built without [Format]; {!run} tests its fixpoint on
    it. *)

val run_program : Cfg.program -> unit

(** {2 Global passes}

    Whole-function transformations driven by abstract-interpretation facts
    (computed in [trips_analysis], passed in as closures so the dependency
    arrow keeps pointing this way).  Every rewrite is named by a [gfact] so
    the translation validator can replay the application and re-derive each
    fact independently. *)

type absfacts = {
  af_const : string -> int -> Cfg.operand option;
      (** [(block, ins index)]: the definition provably has this constant *)
  af_branch : string -> bool option;
      (** the block's branch condition is provably nonzero / zero *)
  af_sep : Cfg.operand * int * Ty.width -> Cfg.operand * int * Ty.width -> bool;
      (** [(root, offset, width)] accesses provably never overlap *)
}

val no_facts : absfacts
(** The empty fact set: global passes become no-ops. *)

type gfact =
  | Gconst of string * int * Cfg.vreg * Cfg.operand
  | Gbranch of string * bool
  | Grle of string * int * Cfg.vreg * Cfg.operand
  | Gdse of string * int

val pp_gfact : Format.formatter -> gfact -> unit

val gather_global : absfacts -> Cfg.func -> gfact list
(** Collect every global rewrite the facts justify: sparse constant /
    branch folding, redundant-load elimination over an available-loads
    fixpoint, and dead-store elimination over an overwritten-before-observed
    fixpoint.  Does not modify the function. *)

val apply_global : Cfg.func -> gfact list -> unit
(** Apply gathered facts.  Indices refer to pre-application instruction
    lists; deterministic, so the validator replays it bit-for-bit. *)

val run_global : absfacts -> Cfg.func -> gfact list
(** [gather_global] followed by [apply_global]; returns the applied facts. *)
