(** Global abstract interpretation over the TIR CFG.

    Computes, per program point, an interval + known-bits + address-base
    abstraction of every vreg: value ranges, nullness, and a
    field-insensitive separation oracle for global/address accesses.  The
    results drive the global optimization passes in {!Trips_tir.Opt} (via
    {!facts}), surface as [pass:"absint"] {!Diag} findings, and feed the
    [absint] experiment through {!stats}.

    Each function's fixpoint is computed by round-robin sweeps over its
    blocks in layout order, re-running only blocks whose entry state
    changed (dirty flags), not by a worklist: widening counts joins per
    block head, so the visit order is part of the result.

    Soundness posture: function parameters are top (entry functions can be
    invoked with arbitrary harness arguments); return values use bounded
    downward summary iteration from top, each round sound by monotonicity.
    A function is re-analyzed in a round only when the summary of one of
    its callees changed; otherwise its previous result is reused.
    Widening kicks in after a few joins at each block head, with a sweep cap
    that falls back to all-top, so analysis always terminates. *)

type t
(** Fixpoint results for a whole program. *)

val analyze : ?bug:int -> Trips_tir.Cfg.program -> t
(** Run the analysis.  [?bug] (1..{!num_bugs}) deliberately corrupts one
    transfer function / oracle for the mutation test suite; out-of-range
    values mean "no bug". *)

val num_bugs : int
(** Number of distinct seeded-breakage modes accepted by [analyze ~bug]. *)

val msb : int64 -> int
(** Position of the highest set bit among bits 0..62, [-1] when none is
    set; bit 63 is ignored.  The known-bits normalization uses it to mark
    the bits above a non-negative range's upper bound as zero. *)

(** {2 Queries} *)

val range_at :
  t -> fname:string -> label:string -> Trips_tir.Cfg.vreg -> (int64 * int64) option
(** Signed inclusive range of a vreg at a block entry; [None] when the
    block is unreachable, the vreg may hold a float/address, or the
    function is unknown. *)

val def_value :
  t -> fname:string -> label:string -> int -> (int64 * int64) option
(** Range of the value defined by instruction [idx] of [label], if the
    instruction defines an integer (non-address) value. *)

val branch_dir : t -> fname:string -> label:string -> bool option
(** Provable direction of the block's branch, if any. *)

val reachable : t -> fname:string -> label:string -> bool
(** Whether the fixpoint found any path into the block. *)

val separated :
  t ->
  fname:string ->
  Trips_tir.Cfg.operand * int * Trips_tir.Ty.width ->
  Trips_tir.Cfg.operand * int * Trips_tir.Ty.width ->
  bool
(** Must-not-alias oracle over [(address root, byte offset, width)]
    accesses; [true] only when the two accesses provably never overlap. *)

(** {2 Consumers} *)

val facts : t -> string -> Trips_tir.Opt.absfacts
(** Fact closures for the named function, feeding
    {!Trips_tir.Opt.gather_global}.  Unknown functions get
    {!Trips_tir.Opt.no_facts}. *)

val diags : t -> Diag.t list
(** [pass:"absint"] findings: provably dead branches (Info), must-not-alias
    pair summaries (Info), always-trapping divisions and provably
    out-of-range shift counts (Warning). *)

type stats = {
  s_funcs : int;
  s_blocks : int;
  s_reachable : int;
  s_const_defs : int;  (** definitions proved constant *)
  s_dead_branches : int;  (** branches with a provable direction *)
  s_trap_divs : int;
  s_oor_shifts : int;
  s_sep_pairs : int;  (** memory access pairs proved must-not-alias *)
  s_widenings : int;
}

val stats : t -> stats
