(** Functional simulator for the RISC baseline.

    Executes a linked {!Isa.program} against an {!Trips_tir.Image},
    producing the PowerPC-side counts of Figs 4–5 (instructions by class,
    loads/stores, register-file reads/writes) and, through [on_retire], the
    dynamic instruction stream consumed by the branch-predictor study
    (Fig 7) and the out-of-order reference models (Figs 11–12).

    Calls use the same "magic" save/restore convention as the EDGE executor
    (both register files are checkpointed at the call and restored at the
    return, minus the result registers), so cross-ISA instruction-count
    comparisons exclude identical ABI bookkeeping on both sides; DESIGN.md
    records this as a deliberate substitution. *)

type kind = Kplain | Kcond | Kuncond | Kcall | Kret

type retire = {
  r_pc : int;                            (* globally unique word address *)
  r_ins : Isa.ins;
  r_srcs : int list;                     (* register ids; floats offset +32 *)
  r_dst : int option;
  r_mem : (int * Trips_tir.Ty.width * bool) option;  (* addr, width, load? *)
  r_branch : (bool * int) option;        (* taken?, target pc *)
  r_kind : kind;
}

type stats = {
  mutable executed : int;
  mutable alu : int;
  mutable moves : int;
  mutable branches : int;
  mutable taken : int;
  mutable loads : int;
  mutable stores : int;
  mutable reg_reads : int;
  mutable reg_writes : int;
  mutable flops : int;
  mutable unique_pcs : int;              (* dynamic code footprint, §4.4 *)
}

type result = {
  ret_int : int64;                       (* r3 at final return *)
  ret_flt : float;                       (* f1 at final return *)
  stats : stats;
}

val ret_value : result -> Trips_tir.Ty.t option -> Trips_tir.Ty.value option
(** Interpret the result registers according to the entry's return type. *)

val run :
  ?fuel:int ->
  ?on_retire:(retire -> unit) ->
  Isa.program ->
  Trips_tir.Image.t ->
  entry:string ->
  args:Trips_tir.Ty.value list ->
  result
