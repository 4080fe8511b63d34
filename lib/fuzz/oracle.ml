module Ast = Trips_tir.Ast
module Ty = Trips_tir.Ty
module Image = Trips_tir.Image
module Interp = Trips_tir.Interp
module Lower = Trips_tir.Lower
module Semantics = Trips_tir.Semantics
module Driver = Trips_compiler.Driver
module Preset = Trips_workloads.Preset
module Block = Trips_edge.Block
module Isa = Trips_edge.Isa
module Exec = Trips_edge.Exec
module Core = Trips_sim.Core
module Timing = Trips_sim.Timing
module Analyzer = Trips_analysis.Analyzer
module Diag = Trips_analysis.Diag
module Rcodegen = Trips_risc.Codegen
module Rexec = Trips_risc.Exec

type inject = Geni_bump | Imm_bump | Absint_flaw of int

let inject_to_string = function
  | Geni_bump -> "geni-bump"
  | Imm_bump -> "imm-bump"
  | Absint_flaw n -> Printf.sprintf "absint-%d" n

let inject_of_string = function
  | "geni-bump" -> Some Geni_bump
  | "imm-bump" -> Some Imm_bump
  | s -> (
    match String.length s > 7 && String.sub s 0 7 = "absint-" with
    | true -> (
      match int_of_string_opt (String.sub s 7 (String.length s - 7)) with
      | Some n when n >= 1 && n <= Trips_analysis.Absint.num_bugs ->
        Some (Absint_flaw n)
      | _ -> None)
    | false -> None)

type failure = { f_check : string; f_config : string; f_detail : string }

type verdict = Pass | Invalid of string | Fail of failure list

type t = {
  presets : Driver.preset list;
  check_verify : bool;
  check_lint : bool;
  check_transval : bool;
  check_sim : bool;
  check_risc : bool;
  check_cfg : bool;
  inject : inject option;
  fuel : int;
}

(* The static timing estimate must stay within
   [timing_slack * simulated + timing_margin] cycles.  The model composes
   per-block critical paths serially (plus predictor redirects), while
   the simulator overlaps up to a window's worth of blocks, so the
   estimate is not a strict lower bound on predication-heavy random
   programs (worst observed overshoot ~2.3x over 500 seeds).  The check
   is a sanity corridor that still catches gross model breakage; the
   margin swamps tiny programs. *)
let timing_slack = 4.0
let timing_margin = 1000

let make ?(presets = List.map Preset.driver Preset.all) ?(check_verify = true)
    ?(check_lint = true) ?(check_transval = true) ?(check_sim = true)
    ?(check_risc = true) ?(check_cfg = true) ?inject ?(fuel = 50_000_000) () =
  {
    presets;
    check_verify;
    check_lint;
    check_transval;
    check_sim;
    check_risc;
    check_cfg;
    inject;
    fuel;
  }

(* Flip the first matching instruction of the compiled program: the PR 6
   mutation style, applied post-compile so only the execution diff (not the
   translation validator, which sees the unmutated pipeline) can catch it. *)
let apply_inject kind (bp : Block.program) : Block.program =
  let hit = ref false in
  let map_inst (inst : Isa.inst) =
    if !hit then inst
    else
      match (kind, inst.op, inst.imm) with
      | Geni_bump, Isa.Geni k, _ ->
        hit := true;
        { inst with op = Isa.Geni (Int64.add k 1L) }
      | Imm_bump, _, Some m ->
        hit := true;
        { inst with imm = Some (Int64.add m 1L) }
      | _ -> inst
  in
  let map_block (b : Block.t) = { b with insts = Array.map map_inst b.insts } in
  let map_func (f : Block.func) =
    { f with blocks = List.map map_block f.blocks }
  in
  { bp with funcs = List.map map_func bp.funcs }

let value_eq a b =
  match (a, b) with
  | Some (Ty.Vi x), Some (Ty.Vi y) -> Int64.equal x y
  | Some (Ty.Vf x), Some (Ty.Vf y) ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | None, None -> true
  | _ -> false

let value_str = function
  | Some (Ty.Vi n) -> Int64.to_string n
  | Some (Ty.Vf x) -> Printf.sprintf "%h" x
  | None -> "-"

let run t (p : Ast.program) : verdict =
  match Typecheck.check p with
  | Error m -> Invalid ("ill-typed: " ^ m)
  | Ok () when not (List.exists (fun (f : Ast.func) -> f.fname = "main") p.funcs)
    ->
    Invalid "no main function"
  | Ok () -> (
    let entry = "main" in
    let ret_ty = (Ast.find_func p entry).ret in
    let image0 = Image.build p.globals in
    match Interp.run_ast ~fuel:t.fuel p image0 entry [] with
    | exception Semantics.Trap m -> Invalid ("trap: " ^ m)
    | exception Interp.Out_of_fuel -> Invalid "out of fuel"
    | ref_out ->
      let ref_ret = ref_out.Interp.result in
      let ref_sum = Image.checksum image0 in
      let fails = ref [] in
      let addf f_check f_config f_detail =
        fails := { f_check; f_config; f_detail } :: !fails
      in
      let diff_detail what got =
        Printf.sprintf "%s: got %s, interp %s" what got (value_str ref_ret)
      in
      (if t.check_cfg then
         let cfg = Lower.program p in
         let img = Image.build p.globals in
         match Interp.run_cfg ~fuel:t.fuel cfg img entry [] with
         | exception e -> addf "cfg" "" ("raised " ^ Printexc.to_string e)
         | oc ->
           if not (value_eq oc.Interp.result ref_ret) then
             addf "cfg" "" (diff_detail "cfg-interp result" (value_str oc.Interp.result));
           if not (Int64.equal (Image.checksum img) ref_sum) then
             addf "cfg-mem" ""
               (Printf.sprintf "memory image diverged: %Ld vs %Ld"
                  (Image.checksum img) ref_sum));
      List.iter
        (fun (preset : Driver.preset) ->
          let pname = preset.Driver.pname in
          let absint_bug =
            match t.inject with Some (Absint_flaw n) -> Some n | _ -> None
          in
          match
            Driver.compile ~verify:t.check_verify ~validate:t.check_transval
              ?absint_bug preset p
          with
          | exception Driver.Verify_failed (stage, diags) ->
            addf "verify" pname
              (Printf.sprintf "%s: %s" stage (Analyzer.summary diags))
          | exception e -> addf "compile" pname (Printexc.to_string e)
          | bp -> (
            let bp =
              match t.inject with
              | Some ((Geni_bump | Imm_bump) as k) -> apply_inject k bp
              | _ -> bp
            in
            (if t.check_lint then
               let diags = Analyzer.analyze_program bp in
               if Diag.failed ~strict:true diags then
                 addf "lint" pname (Analyzer.summary diags));
            let img = Image.build p.globals in
            (match Exec.run ~fuel:t.fuel bp img ~entry ~args:[] with
            | exception e -> addf "exec" pname ("raised " ^ Printexc.to_string e)
            | r ->
              if not (value_eq r.Exec.ret ref_ret) then
                addf "exec" pname (diff_detail "EDGE result" (value_str r.Exec.ret));
              if not (Int64.equal (Image.checksum img) ref_sum) then
                addf "mem" pname
                  (Printf.sprintf "memory image diverged: %Ld vs %Ld"
                     (Image.checksum img) ref_sum));
            if t.check_sim then
              let simg = Image.build p.globals in
              match Core.run ~fuel:t.fuel bp simg ~entry ~args:[] with
              | exception e -> addf "sim" pname ("raised " ^ Printexc.to_string e)
              | r ->
                if not (value_eq r.Core.ret ref_ret) then
                  addf "sim" pname (diff_detail "sim result" (value_str r.Core.ret));
                if not (Int64.equal (Image.checksum simg) ref_sum) then
                  addf "sim-mem" pname
                    (Printf.sprintf "memory image diverged: %Ld vs %Ld"
                       (Image.checksum simg) ref_sum);
                let timg = Image.build p.globals in
                match Timing.predict_program bp timg ~entry ~args:[] with
                | exception e ->
                  addf "timing" pname ("predictor raised " ^ Printexc.to_string e)
                | pr ->
                  let measured = r.Core.timing.Core.cycles in
                  let limit =
                    (timing_slack *. float_of_int measured)
                    +. float_of_int timing_margin
                  in
                  if float_of_int pr.Timing.pr_cycles > limit then
                    addf "timing" pname
                      (Printf.sprintf
                         "static estimate %d outside corridor (%.1fx \
                          simulated %d + %d)"
                         pr.Timing.pr_cycles timing_slack measured
                         timing_margin)))
        t.presets;
      (if t.check_risc then
         match Rcodegen.compile p with
         | exception e -> addf "risc" "RISC" ("compile raised " ^ Printexc.to_string e)
         | rp -> (
           let img = Image.build p.globals in
           match Rexec.run ~fuel:t.fuel rp img ~entry ~args:[] with
           | exception e -> addf "risc" "RISC" ("raised " ^ Printexc.to_string e)
           | r ->
             let ret = Rexec.ret_value r ret_ty in
             if not (value_eq ret ref_ret) then
               addf "risc" "RISC" (diff_detail "RISC result" (value_str ret));
             if not (Int64.equal (Image.checksum img) ref_sum) then
               addf "risc-mem" "RISC"
                 (Printf.sprintf "memory image diverged: %Ld vs %Ld"
                    (Image.checksum img) ref_sum)));
      (match List.rev !fails with [] -> Pass | fs -> Fail fs))

(* The cheapest sub-oracle that still detects [f]: used by the shrinker so
   candidate evaluation does not pay for the whole stack. *)
let focus t (f : failure) =
  let presets =
    match List.filter (fun (p : Driver.preset) -> p.Driver.pname = f.f_config) t.presets with
    | [] -> t.presets
    | ps -> ps
  in
  let is = List.mem f.f_check in
  {
    t with
    presets = (if is [ "cfg"; "cfg-mem"; "risc"; "risc-mem" ] then [] else presets);
    check_cfg = is [ "cfg"; "cfg-mem" ];
    check_risc = is [ "risc"; "risc-mem" ];
    check_verify = is [ "verify"; "compile" ];
    check_lint = is [ "lint" ];
    check_transval = is [ "verify"; "compile" ] && t.check_transval;
    check_sim = is [ "sim"; "sim-mem"; "timing" ];
    (* Shrink candidates are small; a tight fuel bound rejects candidates
       that became non-terminating without burning seconds each. *)
    fuel = min t.fuel 5_000_000;
  }

(* Does the oracle still report a failure of the same kind?  The shrinker's
   interestingness predicate. *)
let fails_like t (orig : failure) p =
  match run t p with
  | Pass | Invalid _ -> false
  | Fail fs -> List.exists (fun f -> f.f_check = orig.f_check) fs
