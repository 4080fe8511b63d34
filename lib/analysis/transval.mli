(** Translation validation: per-pass symbolic equivalence checking.

    Each checker enumerates the feasible predicate paths of the target
    side of a compiler pass, replays the source side under the same
    path conditions, and compares normalized {!Symval} terms for every
    observable output (exit, register interface, memory stores, call
    events, return value).  Syntactic agreement proves a path; residual
    mismatches fall back to seeded random concretization, which either
    finds a decisive counterexample or upgrades the block to
    concretely-validated.  See DESIGN.md §11. *)

module Ast = Trips_tir.Ast
module Ty = Trips_tir.Ty
module Cfg = Trips_tir.Cfg
module S = Symval
module Eblk = Trips_edge.Block
module Risa = Trips_risc.Isa

exception Refute of string
(** Structural divergence on the current path; caught by the
    enumerator and judged for feasibility. *)

(** {1 Exits} *)

type exitk =
  | Xjump of string
  | Xidx of int  (** RISC: labels compare by code index *)
  | Xcall of string * string
  | Xret

(** {1 Source regions} *)

type ritem =
  | Rins of Cfg.ins
  | Rif of Cfg.operand * ritem list * ritem list
  | Rexit of exitk
  | Rret of Cfg.operand option

type rconfig = {
  rc_iface : int -> S.t;  (** initial value of a virtual register *)
  rc_sym : string -> int64;  (** symbol addresses (linker layout) *)
  rc_isf : Cfg.operand -> bool;  (** float class of a call argument *)
  rc_dst_ch : int -> int;  (** havoc channel of a call destination *)
}

type rres = {
  rr_exit : exitk;
  rr_env : (int, S.t) Hashtbl.t;
  rr_ret : S.t option;
  rr_stores : (Ty.width * S.t * S.t) list;
  rr_calls : (string * (bool * S.t) list) list;
}

val cfg_live_out : Cfg.func -> string -> Set.Make(Int).t
(** Block-level vreg liveness over a CFG function. *)

(** {1 Verdicts and reports} *)

type verdict = Vproved | Vconcrete | Vrefuted

val verdict_name : verdict -> string

type report = {
  r_stage : string;
  r_fname : string;
  r_block : string;
  r_verdict : verdict;
  r_paths : int;
  r_diags : Diag.t list;
}

type summary = { n_proved : int; n_concrete : int; n_refuted : int }

val summarize : report list -> summary
val report_diags : report list -> Diag.t list

val mk_report :
  stage:string -> fname:string -> block:string -> verdict -> int -> Diag.t list -> report

val refuted_report : stage:string -> fname:string -> block:string -> string -> report
(** A structural refutation produced outside path enumeration. *)

(** {1 Pass checkers} *)

val check_opt :
  ?max_paths:int -> sym:(string -> int64) -> fname:string -> Cfg.func -> Cfg.func -> report list
(** [check_opt ~sym ~fname pre post] validates a TIR-to-TIR pass
    block-by-block: exits, live-out vregs, stores, call events and the
    return value must agree per feasible path. *)

val check_hblock :
  ?max_paths:int ->
  ?stage:string ->
  fname:string ->
  sym:(string -> int64) ->
  iface:(int -> S.t) ->
  writes:(int * int) list ->
  src:ritem list ->
  Eblk.t ->
  report
(** Validate a TIR region against the scheduled EDGE dataflow block
    it was converted to.  [iface] maps source vregs to architectural
    register terms; [writes] pairs each output vreg with its target
    register.  The declared write set must match [writes] exactly. *)

val check_schedule :
  fname:string ->
  (string
  * (Trips_edge.Isa.inst array * Eblk.read array * Eblk.write array))
  list ->
  Eblk.func ->
  report list
(** Scheduling is semantics-free: arrays must be unchanged from the
    pre-placement snapshot and the placement map well-formed. *)

val check_link : Eblk.program -> report list
(** Every jump target, call target and return label resolves. *)

(** {1 RISC backend} *)

type loc = Lreg of int | Lspill of int

val spill_off : int -> int

val check_risc_func :
  ?max_paths:int ->
  sym:(string -> int64) ->
  fname:string ->
  cls:(int -> bool) ->
  loc:(int -> loc) ->
  frame:int ->
  has_frame:bool ->
  Cfg.func ->
  Risa.func ->
  report list
(** Validate each CFG block of a function against its code range in
    the emitted RISC stream.  [cls v] is true for float vregs; [loc]
    is the register-allocation assignment; [frame]/[has_frame]
    describe the stack frame. *)

(** {1 Global passes} *)

val check_gapply :
  Cfg.program ->
  (string * Trips_tir.Opt.gfact list) list ->
  Cfg.program ->
  report list
(** [check_gapply mid applied g1] validates the global-optimization
    application: every applied fact must be independently re-derivable by
    a fresh abstract interpretation of the pre-application program [mid],
    and replaying the application on [mid] must reproduce [g1] exactly. *)

val check_relax : fname:string -> Eblk.t -> Eblk.t -> report
(** [check_relax ~fname pre post] validates an LSID relaxation: the two
    blocks must be identical except for permuted load/store sequence IDs,
    store-store order must be preserved, and every flipped load/store pair
    must be provably disjoint by {!Memsep} on the post block.  Load-load
    order is unconstrained: loads commute regardless of aliasing. *)
