(** Differential oracle: one TIR program, every backend, every check.

    For each program the oracle runs the AST interpreter as the reference,
    then cross-checks, per compilation preset: compiler self-verification
    and translation validation ([Driver.compile ~verify ~validate]), strict
    lint of the compiled blocks, the EDGE functional executor's result and
    memory image, the cycle simulator's result and memory image, and the
    static timing analyzer's sanity corridor: the estimate of
    {!Trips_sim.Timing.predict_program} must stay within 4x simulated
    cycles plus 1000.  It is {e not} a strict lower bound: the model
    composes per-block critical paths serially while the simulator
    overlaps blocks in flight, so predication-heavy random programs
    overshoot by over 2x (worst observed ~2.3x over 500 seeds).
    Independently it checks the lowered-CFG interpreter and the RISC
    backend against the same reference.

    The memory comparison is {!Trips_tir.Image.checksum}, which covers the
    program-data region only (below the scratch/stack area), so backend
    scratch usage does not produce false diffs. *)

type inject = Geni_bump | Imm_bump | Absint_flaw of int
(** Compiler-bug injection.  [Geni_bump]/[Imm_bump] mutate the compiled
    EDGE program after the (clean) pipeline ran — bump the first [Geni]
    constant or the first instruction immediate, the PR 6
    transval-mutation style, caught by the execution diff.
    [Absint_flaw n] (["absint-<n>"], [1..Trips_analysis.Absint.num_bugs])
    instead corrupts the compiler-side abstract interpretation that
    drives the global optimization passes; the translation validator's
    clean re-derivation refutes the bogus facts, so these are caught by
    the "verify" check. *)

val inject_to_string : inject -> string
val inject_of_string : string -> inject option

type failure = {
  f_check : string;
      (** "compile" | "verify" | "lint" | "exec" | "mem" | "sim" | "sim-mem"
          | "timing" | "cfg" | "cfg-mem" | "risc" | "risc-mem" *)
  f_config : string;  (** preset name, "RISC", or "" for preset-independent *)
  f_detail : string;
}

type verdict =
  | Pass
  | Invalid of string  (** reference itself trapped / ran out of fuel *)
  | Fail of failure list

type t = {
  presets : Trips_compiler.Driver.preset list;
  check_verify : bool;
  check_lint : bool;
  check_transval : bool;
  check_sim : bool;
  check_risc : bool;
  check_cfg : bool;
  inject : inject option;
  fuel : int;
}

val make :
  ?presets:Trips_compiler.Driver.preset list ->
  ?check_verify:bool ->
  ?check_lint:bool ->
  ?check_transval:bool ->
  ?check_sim:bool ->
  ?check_risc:bool ->
  ?check_cfg:bool ->
  ?inject:inject ->
  ?fuel:int ->
  unit ->
  t
(** Every check on by default, at every {!Trips_workloads.Preset}; the
    timing corridor runs with [check_sim]. *)

val apply_inject : inject -> Trips_edge.Block.program -> Trips_edge.Block.program

val run : t -> Trips_tir.Ast.program -> verdict

val focus : t -> failure -> t
(** Restrict to the cheapest configuration that can still detect [failure];
    the shrinker evaluates candidates under this. *)

val fails_like : t -> failure -> Trips_tir.Ast.program -> bool
(** Does [run] report some failure with the same [f_check]? *)
