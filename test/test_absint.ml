(* Global abstract interpretation: known-answer range/alias facts on
   hand-written programs and hand-built CFGs (the environment's merge and
   copy-on-write rules), the seeded-bug mutation suite (every broken
   analysis mode must be refuted by the validator's clean re-derivation),
   the fixpoint/idempotence property of the extended optimization
   pipeline (local passes + fact-driven global passes), the soundness of
   the cached fixed-point bit on every stored value, and two fact
   goldens: a digest of every fact the analysis exposes, per workload and
   preset, pinned to test/absint_golden.ml, and the same facts plus every
   gathered global rewrite per fuzz program, pinned to
   test/absint_fuzz_golden.ml (subsets by default; everything with
   TRIPS_ABSINT_GOLDEN_FULL=1). *)

module Ast = Trips_tir.Ast
module Ty = Trips_tir.Ty
module Cfg = Trips_tir.Cfg
module Lower = Trips_tir.Lower
module Opt = Trips_tir.Opt
module Driver = Trips_compiler.Driver
module Absint = Trips_analysis.Absint
module Diag = Trips_analysis.Diag
module Registry = Trips_workloads.Registry
module Preset = Trips_workloads.Preset
open Ast.Infix

let prog ?(globals = [ Ast.global "gA" 64; Ast.global "gB" 64 ]) body =
  Ast.program ~globals [ Ast.func "main" ~ret:Ty.I64 body ]

let analyzed ?bug p =
  let cfg = Lower.program p in
  (cfg, Absint.analyze ?bug cfg)

let main_func (cfg : Cfg.program) =
  List.find (fun (f : Cfg.func) -> f.Cfg.name = "main") cfg.Cfg.funcs

(* -- known-answer facts ---------------------------------------------- *)

let test_const_branch () =
  let p = prog [ set "x" (i 5); if_ (v "x" <: i 3) [ ret (i 1) ] [ ret (i 2) ] ] in
  let cfg, t = analyzed p in
  let f = main_func cfg in
  let dirs =
    List.filter_map
      (fun (b : Cfg.block) ->
        Absint.branch_dir t ~fname:"main" ~label:b.Cfg.label)
      f.Cfg.blocks
  in
  Alcotest.(check (list bool)) "5 < 3 is provably false" [ false ] dirs;
  let dead =
    List.filter
      (fun (b : Cfg.block) ->
        not (Absint.reachable t ~fname:"main" ~label:b.Cfg.label))
      f.Cfg.blocks
  in
  Alcotest.(check bool) "the then-block is unreachable" true (dead <> [])

let test_loop_exit_range () =
  let p =
    prog
      [ set "k" (i 0);
        while_ (v "k" <: i 10) [ set "k" (v "k" +: i 1) ];
        ret (v "k") ]
  in
  let cfg, t = analyzed p in
  let f = main_func cfg in
  let checked = ref false in
  List.iter
    (fun (b : Cfg.block) ->
      match b.Cfg.term with
      | Cfg.Ret (Some (Cfg.Reg r)) -> (
        match Absint.range_at t ~fname:"main" ~label:b.Cfg.label r with
        | Some (lo, _) ->
          checked := true;
          Alcotest.(check int64) "loop exit: k >= 10 exactly" 10L lo
        | None -> Alcotest.fail "no range for the returned vreg")
      | _ -> ())
    f.Cfg.blocks;
  Alcotest.(check bool) "found a Ret of a vreg" true !checked

let find_def (f : Cfg.func) pred =
  let hit = ref None in
  List.iter
    (fun (b : Cfg.block) ->
      List.iteri
        (fun i ins -> if !hit = None && pred ins then hit := Some (b.Cfg.label, i))
        b.Cfg.ins)
    f.Cfg.blocks;
  match !hit with Some x -> x | None -> Alcotest.fail "definition not found"

let test_subword_load_range () =
  let p = prog [ set "x" (ld1 (g "gA")); ret (v "x") ] in
  let cfg, t = analyzed p in
  let label, idx =
    find_def (main_func cfg) (function
      | Cfg.Load (_, Ty.W1, _, _, _) -> true
      | _ -> false)
  in
  Alcotest.(check (option (pair int64 int64)))
    "byte loads zero-extend into [0, 255]"
    (Some (0L, 255L))
    (Absint.def_value t ~fname:"main" ~label idx)

let test_mask_range () =
  let p = prog [ set "x" (ld8 (g "gA") &: i 7); ret (v "x") ] in
  let cfg, t = analyzed p in
  let label, idx =
    find_def (main_func cfg) (function
      | Cfg.Bin (Ast.And, _, _, _) -> true
      | _ -> false)
  in
  Alcotest.(check (option (pair int64 int64)))
    "x & 7 lands in [0, 7]"
    (Some (0L, 7L))
    (Absint.def_value t ~fname:"main" ~label idx)

let test_separation () =
  let p = prog [ st8 (g "gA") (i 1); st8 (g "gB") (i 2); ret (i 0) ] in
  let _, t = analyzed p in
  let sep = Absint.separated t ~fname:"main" in
  let acc g off w : Cfg.operand * int * Ty.width = (Cfg.Sym g, off, w) in
  Alcotest.(check bool) "distinct globals are disjoint" true
    (sep (acc "gA" 0 Ty.W8) (acc "gB" 0 Ty.W8));
  Alcotest.(check bool) "overlapping offsets are not" false
    (sep (acc "gA" 0 Ty.W8) (acc "gA" 4 Ty.W8));
  Alcotest.(check bool) "adjacent words are disjoint" true
    (sep (acc "gA" 0 Ty.W4) (acc "gA" 4 Ty.W4));
  Alcotest.(check bool) "out-of-bounds access proves nothing" false
    (sep (acc "gA" 60 Ty.W8) (acc "gB" 0 Ty.W8))

let test_diags () =
  let p =
    prog
      [ set "x" (ld8 (g "gA"));
        set "z" (i 0);
        set "d" (v "x" /: v "z");
        set "s" (v "x" <<: i 64);
        st8 (g "gB") (i 3);
        if_ (i 1 <: i 2) [ st8 (g "gA") (v "d") ] [ st8 (g "gA") (v "s") ];
        ret (i 0) ]
  in
  let _, t = analyzed p in
  let classes = List.map (fun (d : Diag.t) -> d.Diag.cls) (Absint.diags t) in
  List.iter
    (fun c ->
      Alcotest.(check bool) (c ^ " reported") true (List.mem c classes))
    [ "trap-div"; "shift-range"; "dead-branch"; "alias-pairs" ]

let test_load_load_relax () =
  (* A store the unknown-address load may alias pins that load in place,
     while a provably-disjoint load jumps ahead of both — inverting the
     two loads' LSID order.  Loads commute unconditionally, so the
     validator must accept the permutation (regression: check_relax once
     demanded disjointness for flipped load-load pairs too). *)
  let p =
    prog
      ~globals:[ Ast.global "gA" 64; Ast.global "gB" 64; Ast.global "gC" 64 ]
      [ st8 (g "gC") (i 1);
        set "y" (ld8 (g "gA"));
        set "x" (ld8 (g "gA" +: v "y"));
        set "z" (ld8 (g "gB"));
        ret (v "x" +: v "z") ]
  in
  let _, gs = Driver.compile_stats ~validate:true Driver.compiled p in
  Alcotest.(check bool) "relaxation fired" true (gs.Driver.gs_relaxed > 0)

let test_nan_relax () =
  (* A NaN float constant in a relaxed block: the validator's structural
     pre/post comparison must treat [Genf nan] as equal to itself
     (regression: polymorphic (=) made check_relax report the identical
     instruction as rewritten, because nan <> nan). *)
  let p =
    prog
      ~globals:[ Ast.global "gA" 64; Ast.global "gB" 64; Ast.global "gC" 64 ]
      [ st8 (g "gC") (f Float.nan);
        set "y" (ld8 (g "gA"));
        set "x" (ld8 (g "gA" +: v "y"));
        set "z" (ld8 (g "gB"));
        ret (v "x" +: v "z") ]
  in
  let _, gs = Driver.compile_stats ~validate:true Driver.compiled p in
  Alcotest.(check bool) "relaxation fired" true (gs.Driver.gs_relaxed > 0)

(* The bit-by-bit scan [Absint.msb] replaced; it never looks at bit 63. *)
let msb_scan (n : int64) =
  let rec go i =
    if i < 0 then -1
    else if Int64.logand n (Int64.shift_left 1L i) <> 0L then i
    else go (i - 1)
  in
  go 62

let test_msb () =
  let pow2 = List.init 64 (fun i -> Int64.shift_left 1L i) in
  let inputs =
    [ 0L; 1L; Int64.max_int; -1L; -2L; Int64.min_int; Int64.add Int64.min_int 1L ]
    @ pow2
    @ List.concat_map (fun p -> [ Int64.pred p; Int64.succ p; Int64.neg p ]) pow2
    @ List.init 1000 (fun i -> Int64.mul (Int64.of_int (i + 1)) 0x9E3779B97F4A7C15L)
  in
  List.iter
    (fun n ->
      Alcotest.(check int) (Printf.sprintf "msb %Ld" n) (msb_scan n) (Absint.msb n))
    inputs

(* -- merge and copy-on-write rules, on hand-built CFGs ------------------- *)

let cfg_main ?(next_vreg = 16) blocks : Cfg.program =
  let blocks =
    List.map (fun (label, ins, term) -> { Cfg.label; ins; term }) blocks
  in
  {
    Cfg.globals = [ Ast.global "gA" 64 ];
    funcs = [ { Cfg.name = "main"; params = []; ret = Some Ty.I64; blocks; next_vreg } ];
  }

let load_a d = Cfg.Load (Ty.I64, Ty.W8, d, Cfg.Sym "gA", 0)
let range_opt = Alcotest.(option (pair int64 int64))

let test_one_arm_def () =
  (* v2 is defined on the then-arm only: the join adopts that arm's
     range rather than dropping to top, whichever arm is visited first *)
  let diamond then_ins else_ins =
    cfg_main
      [ ("entry", [ load_a 0; Cfg.Bin (Ast.Lt, 1, Cfg.Reg 0, Cfg.Ci 0L) ],
          Cfg.Br (Cfg.Reg 1, "then", "else"));
        ("then", then_ins, Cfg.Jmp "join");
        ("else", else_ins, Cfg.Jmp "join");
        ("join", [], Cfg.Ret (Some (Cfg.Reg 2))) ]
  in
  let mask = [ Cfg.Bin (Ast.And, 2, Cfg.Reg 0, Cfg.Ci 7L) ] in
  List.iter
    (fun (what, p) ->
      let t = Absint.analyze p in
      Alcotest.check range_opt (what ^ ": v2 at the join") (Some (0L, 7L))
        (Absint.range_at t ~fname:"main" ~label:"join" 2))
    [ ("defined on the first arm", diamond mask []);
      ("defined on the second arm", diamond [] mask) ]

let test_undefined_top () =
  (* v9 is read but never written: it reads as top, so a compare of it
     with itself stays undecided *)
  let p =
    cfg_main ~next_vreg:10
      [ ("entry", [ Cfg.Bin (Ast.Eq, 1, Cfg.Reg 9, Cfg.Reg 9) ], Cfg.Jmp "exit");
        ("exit", [], Cfg.Ret (Some (Cfg.Reg 1))) ]
  in
  let t = Absint.analyze p in
  Alcotest.check range_opt "v9 has no range" None
    (Absint.range_at t ~fname:"main" ~label:"exit" 9);
  Alcotest.check range_opt "v9 == v9 is undecided" (Some (0L, 1L))
    (Absint.def_value t ~fname:"main" ~label:"entry" 0);
  Alcotest.check range_opt "a vreg past the function's own reads as top" None
    (Absint.range_at t ~fname:"main" ~label:"exit" 1000)

let test_refine_edges () =
  (* v1 is a copy of v0; the branch on v0 < 10 narrows both on each edge,
     and neither edge sees the other's narrowing *)
  let p =
    cfg_main
      [ ("entry",
          [ load_a 0; Cfg.Mov (1, Cfg.Reg 0); Cfg.Bin (Ast.Lt, 2, Cfg.Reg 0, Cfg.Ci 10L) ],
          Cfg.Br (Cfg.Reg 2, "small", "big"));
        ("small", [], Cfg.Ret (Some (Cfg.Reg 1)));
        ("big", [], Cfg.Ret (Some (Cfg.Reg 1))) ]
  in
  let t = Absint.analyze p in
  let at label v = Absint.range_at t ~fname:"main" ~label v in
  Alcotest.check range_opt "true edge: v0 < 10" (Some (Int64.min_int, 9L)) (at "small" 0);
  Alcotest.check range_opt "true edge: its copy v1 < 10" (Some (Int64.min_int, 9L)) (at "small" 1);
  Alcotest.check range_opt "false edge: v0 >= 10" (Some (10L, Int64.max_int)) (at "big" 0);
  Alcotest.check range_opt "false edge: its copy v1 >= 10" (Some (10L, Int64.max_int)) (at "big" 1);
  Alcotest.check range_opt "the load itself stays top" (Some (Int64.min_int, Int64.max_int))
    (Absint.def_value t ~fname:"main" ~label:"entry" 0)

(* -- seeded-bug mutation suite ---------------------------------------- *)

(* Each broken analysis mode gets a program where the corrupted
   compiler-side fixpoint derives a global fact the validator's clean
   re-derivation cannot confirm: compilation must fail in "global-opt".
   The same program must compile and validate cleanly without the bug. *)

let mutation_programs : (int * string * Ast.program) list =
  [
    ( 1,
      "and-mask",
      (* bugged: x & 7 in [0,6], so x == 7 is "provably false" *)
      prog
        [ set "x" (ld8 (g "gA") &: i 7);
          if_ (v "x" =: i 7) [ st8 (g "gA") (i 1) ] [ st8 (g "gA") (i 2) ];
          ret (v "x") ] );
    ( 2,
      "refine-flip",
      (* bugged: the then-refinement of x < 10 yields x in [10, 63], so the
         inner x >= 10 flips from provably-false to provably-true *)
      prog
        [ set "x" (ld8 (g "gA") &: i 63);
          if_ (v "x" <: i 10)
            [ if_ (v "x" >=: i 10)
                [ st8 (g "gA") (i 1) ]
                [ st8 (g "gA") (i 2) ] ]
            [];
          ret (v "x") ] );
    ( 3,
      "sep-overlap",
      (* bugged: the computed store into gA is "disjoint" from gA[0], so the
         second load is a redundant-load-elimination hit *)
      prog
        [ set "a" (ld8 (g "gA"));
          st8 (g "gA" +: ((ld8 (g "gB") &: i 7) <<: i 3)) (i 7);
          set "b" (ld8 (g "gA"));
          ret (v "a" +: v "b") ] );
    ( 4,
      "add-wrap",
      (* bugged: x in [max-1, max] plus 2 wraps to a negative interval, so
         the inner y < 0 becomes "provably true" *)
      prog
        [ set "x" (ld8 (g "gA"));
          if_ (v "x" >: i64 (Int64.sub Int64.max_int 2L))
            [ set "y" (v "x" +: i 2);
              if_ (v "y" <: i 0) [ st8 (g "gA") (i 1) ] [ st8 (g "gA") (i 2) ] ]
            [];
          ret (v "x") ] );
    ( 5,
      "cmp-flip",
      (* bugged: x < 8 decides with swapped operands, flipping the provable
         direction from true to false *)
      prog
        [ set "x" (ld8 (g "gA") &: i 7);
          if_ (v "x" <: i 8) [ st8 (g "gA") (i 1) ] [ st8 (g "gA") (i 2) ];
          ret (v "x") ] );
  ]

let test_mutation (bug, name, p) () =
  (match Driver.compile ~validate:true Driver.compiled p with
  | _ -> ()
  | exception Driver.Verify_failed (stage, _) ->
    Alcotest.failf "%s: clean pipeline refuted in %s" name stage);
  match Driver.compile ~validate:true ~absint_bug:bug Driver.compiled p with
  | _ -> Alcotest.failf "%s: seeded analysis bug %d not refuted" name bug
  | exception Driver.Verify_failed (stage, _) ->
    Alcotest.(check string)
      (name ^ " refuted by the global-opt validator")
      "global-opt" stage

let test_bug_modes_distinct () =
  Alcotest.(check int) "mutation suite covers every bug mode"
    Absint.num_bugs
    (List.length (List.sort_uniq compare (List.map (fun (b, _, _) -> b) mutation_programs)))

(* -- idempotence of the extended pipeline ------------------------------ *)

(* One round of [local opt -> analyze -> global passes -> local cleanup]
   from the driver's front end must reach a fixpoint: re-running the whole
   round leaves every function byte-identical.  (The driver applies exactly
   one round; this pins down that one round is enough.) *)

let fingerprint (cfg : Cfg.program) =
  String.concat "\n"
    (List.map (fun f -> Format.asprintf "%a" Cfg.pp_func f) cfg.Cfg.funcs)

let global_round (cfg : Cfg.program) =
  let t = Absint.analyze cfg in
  List.iter
    (fun (f : Cfg.func) -> ignore (Opt.run_global (Absint.facts t f.Cfg.name) f))
    cfg.Cfg.funcs;
  Opt.run_program cfg

let test_idempotent name () =
  let b = Registry.find name in
  let cfg = Driver.front_end Driver.compiled b.Registry.program in
  global_round cfg;
  let fp1 = fingerprint cfg in
  global_round cfg;
  Alcotest.(check bool)
    (name ^ ": second global round is a no-op")
    true
    (String.equal fp1 (fingerprint cfg))

(* -- driver payoff ----------------------------------------------------- *)

let test_driver_hits () =
  let b = Registry.find "ct" in
  let _, gs = Driver.compile_stats Driver.compiled b.Registry.program in
  Alcotest.(check bool) "ct has global-optimization hits" true
    (gs.Driver.gs_consts + gs.Driver.gs_branches + gs.Driver.gs_rles
     + gs.Driver.gs_dses + gs.Driver.gs_relaxed
    > 0);
  let _, gs0 =
    Driver.compile_stats ~global_opt:false Driver.compiled b.Registry.program
  in
  Alcotest.(check bool) "ablation reports zero hits" true
    (gs0 = Driver.zero_gstats)

(* -- the cached fixed-point bit -------------------------------------- *)

(* Every value an analysis stores whose bit is set must be one [norm]
   returns unchanged, over the registry at every preset and 50 fuzz
   seeds. *)
let check_fixed_bits tag (p : Ast.program) =
  List.iter
    (fun preset ->
      let cfg = Driver.front_end (Preset.driver preset) p in
      Alcotest.(check int) (tag ^ " " ^ Preset.name preset) 0
        (Absint.fixed_bit_violations (Absint.analyze cfg)))
    Preset.all

let test_fixed_bit_registry () =
  List.iter (fun (b : Registry.bench) -> check_fixed_bits b.Registry.name b.Registry.program)
    Registry.all

let test_fixed_bit_fuzz () =
  for seed = 1 to 50 do
    check_fixed_bits (Printf.sprintf "fuzz seed %d" seed) (Trips_fuzz.Gen.gen_program ~seed ())
  done

(* [4..5] with known-one bits 101: one [norm] step raises the floor to 5,
   a singleton whose bit 1 only the next step marks known-zero, so the
   result must not carry the bit.  The singleton 5 and top are fixed
   points and must. *)
let test_fixed_bit_known () =
  let pair = Alcotest.(pair bool bool) in
  Alcotest.check pair "one step makes a singleton" (false, false)
    (Absint.norm_fixed_bit ~lo:4L ~hi:5L ~kz:0L ~ko:5L);
  Alcotest.check pair "singleton" (true, true)
    (Absint.norm_fixed_bit ~lo:5L ~hi:5L ~kz:0L ~ko:0L);
  Alcotest.check pair "top" (true, true)
    (Absint.norm_fixed_bit ~lo:Int64.min_int ~hi:Int64.max_int ~kz:0L ~ko:0L)

(* -- fact golden ---------------------------------------------------------- *)

(* A fingerprint of everything the analysis exposes: per block, its
   reachability, branch direction and the entry range of every vreg of the
   function; per instruction, its def value; then the stats and diagnostics.
   Any change to a single fact changes the digest. *)

let driver_of ptag = Preset.driver (Option.get (Preset.of_string ptag))

let absint_text t (cfg : Cfg.program) =
  let buf = Buffer.create 4096 in
  let range = function
    | None -> "-"
    | Some (lo, hi) -> Printf.sprintf "%Ld..%Ld" lo hi
  in
  List.iter
    (fun (f : Cfg.func) ->
      let fname = f.Cfg.name in
      Printf.bprintf buf "func %s\n" fname;
      List.iter
        (fun (b : Cfg.block) ->
          let label = b.Cfg.label in
          Printf.bprintf buf "block %s reach=%b dir=%s\n" label
            (Absint.reachable t ~fname ~label)
            (match Absint.branch_dir t ~fname ~label with
            | None -> "-"
            | Some d -> string_of_bool d);
          for v = 0 to f.Cfg.next_vreg - 1 do
            match Absint.range_at t ~fname ~label v with
            | None -> ()
            | r -> Printf.bprintf buf " v%d=%s" v (range r)
          done;
          List.iteri
            (fun i _ ->
              Printf.bprintf buf " d%d=%s" i (range (Absint.def_value t ~fname ~label i)))
            b.Cfg.ins;
          Buffer.add_char buf '\n')
        f.Cfg.blocks)
    cfg.Cfg.funcs;
  let s = Absint.stats t in
  Printf.bprintf buf "stats %d %d %d %d %d %d %d %d %d\n" s.Absint.s_funcs
    s.Absint.s_blocks s.Absint.s_reachable s.Absint.s_const_defs
    s.Absint.s_dead_branches s.Absint.s_trap_divs s.Absint.s_oor_shifts
    s.Absint.s_sep_pairs s.Absint.s_widenings;
  List.iter (fun d -> Printf.bprintf buf "%s\n" (Diag.to_line d)) (Absint.diags t);
  Buffer.contents buf

let absint_fingerprint (cfg : Cfg.program) =
  Digest.to_hex (Digest.string (absint_text (Absint.analyze cfg) cfg))

let golden_digest name ptag =
  let b = Registry.find name in
  absint_fingerprint (Driver.front_end (driver_of ptag) b.Registry.program)

(* TRIPS_ABSINT_GOLDEN_RECORD=FILE rewrites the fixture from the current
   analysis instead of testing — only for an intended change of facts. *)
let record_golden path =
  let oc = open_out path in
  output_string oc
    "(* Digests of the abstract interpretation's observable facts per\n\
    \   workload and preset (see [absint_fingerprint] in test_absint.ml).\n\
    \   Regenerate only if the analysis is meant to compute different\n\
    \   facts: TRIPS_ABSINT_GOLDEN_RECORD=test/absint_golden.ml\n\
    \   dune exec test/test_absint.exe *)\n\n\
     let digests = [\n";
  List.iter
    (fun (b : Registry.bench) ->
      List.iter
        (fun p ->
          let ptag = Preset.name p in
          Printf.fprintf oc "  (%S, %S, %S);\n" b.Registry.name ptag
            (golden_digest b.Registry.name ptag))
        Preset.all)
    Registry.all;
  output_string oc "]\n";
  close_out oc

(* The default subset keeps the multi-function programs, whose return
   summaries change between rounds, next to a few single-function ones. *)
let golden_fast = [ "crafty"; "twolf"; "parser"; "ct"; "fft"; "802.11a" ]

let golden_rows () =
  if Sys.getenv_opt "TRIPS_ABSINT_GOLDEN_FULL" <> None then Absint_golden.digests
  else List.filter (fun (n, _, _) -> List.mem n golden_fast) Absint_golden.digests

let test_golden (name, ptag, digest) () =
  Alcotest.(check string) (name ^ "/" ^ ptag ^ " fact digest") digest
    (golden_digest name ptag)

(* -- fuzz fact golden ---------------------------------------------------- *)

(* The registry golden covers 55 programs and no gathered rewrites.  This
   one pins, per fuzz-generated program and preset, the fact text above
   plus every function's [Opt.gather_global] list, so a change to the
   analysis or to the global-opt dataflows that moves a single fact or
   rewrite on any of the seeds shows up.  [dune runtest] checks the first
   [fuzz_fast] seeds; TRIPS_ABSINT_GOLDEN_FULL=1 checks all of them. *)

let fuzz_seeds = List.init 500 (fun i -> i + 1)
let fuzz_fast = 50

let fuzz_digest seed ptag =
  let p = Trips_fuzz.Gen.gen_program ~seed () in
  let cfg = Driver.front_end (driver_of ptag) p in
  let t = Absint.analyze cfg in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (absint_text t cfg);
  List.iter
    (fun (f : Cfg.func) ->
      Printf.bprintf buf "gather %s\n" f.Cfg.name;
      List.iter
        (fun g -> Buffer.add_string buf (Format.asprintf "%a\n" Opt.pp_gfact g))
        (Opt.gather_global (Absint.facts t f.Cfg.name) f))
    cfg.Cfg.funcs;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* TRIPS_ABSINT_FUZZ_GOLDEN_RECORD=FILE rewrites the fuzz fixture instead
   of testing — only for an intended change of facts or rewrites. *)
let record_fuzz_golden path =
  let oc = open_out path in
  output_string oc
    "(* Digests of the abstract interpretation's facts plus every gathered\n\
    \   global rewrite per fuzz seed and preset (see [fuzz_digest] in\n\
    \   test_absint.ml).  Regenerate only if the analysis or the global\n\
    \   passes are meant to compute something different:\n\
    \   TRIPS_ABSINT_FUZZ_GOLDEN_RECORD=test/absint_fuzz_golden.ml\n\
    \   dune exec test/test_absint.exe *)\n\n\
     let digests = [\n";
  List.iter
    (fun seed ->
      List.iter
        (fun p ->
          let ptag = Preset.name p in
          Printf.fprintf oc "  (%d, %S, %S);\n" seed ptag (fuzz_digest seed ptag))
        Preset.all)
    fuzz_seeds;
  output_string oc "]\n";
  close_out oc

let fuzz_golden_rows () =
  if Sys.getenv_opt "TRIPS_ABSINT_GOLDEN_FULL" <> None then Absint_fuzz_golden.digests
  else List.filter (fun (s, _, _) -> s <= fuzz_fast) Absint_fuzz_golden.digests

let test_fuzz_golden (seed, ptag, digest) () =
  Alcotest.(check string)
    (Printf.sprintf "seed %d/%s fact and rewrite digest" seed ptag)
    digest (fuzz_digest seed ptag)

let () =
  (match Sys.getenv_opt "TRIPS_ABSINT_FUZZ_GOLDEN_RECORD" with
  | Some path ->
    record_fuzz_golden path;
    exit 0
  | None -> ());
  (match Sys.getenv_opt "TRIPS_ABSINT_GOLDEN_RECORD" with
  | Some path ->
    record_golden path;
    exit 0
  | None -> ());
  Alcotest.run "absint"
    [
      ( "facts",
        [
          Alcotest.test_case "constant branch direction" `Quick test_const_branch;
          Alcotest.test_case "loop exit range" `Quick test_loop_exit_range;
          Alcotest.test_case "subword load range" `Quick test_subword_load_range;
          Alcotest.test_case "mask range" `Quick test_mask_range;
          Alcotest.test_case "separation oracle" `Quick test_separation;
          Alcotest.test_case "diagnostics" `Quick test_diags;
          Alcotest.test_case "load-load relaxation accepted" `Quick
            test_load_load_relax;
          Alcotest.test_case "nan constant in relaxed block" `Quick
            test_nan_relax;
          Alcotest.test_case "msb matches the bit scan" `Quick test_msb;
          Alcotest.test_case "one-arm def survives the join" `Quick test_one_arm_def;
          Alcotest.test_case "undefined vreg reads as top" `Quick test_undefined_top;
          Alcotest.test_case "refinement stays on its edge" `Quick test_refine_edges;
        ] );
      ( "mutations",
        Alcotest.test_case "bug modes all covered" `Quick test_bug_modes_distinct
        :: List.map
             (fun ((_, name, _) as m) ->
               Alcotest.test_case ("seeded bug: " ^ name) `Quick (test_mutation m))
             mutation_programs );
      ( "fixpoint",
        List.map
          (fun name ->
            Alcotest.test_case ("idempotent: " ^ name) `Quick (test_idempotent name))
          [ "ct"; "vadd"; "fft"; "8b10b" ] );
      ( "driver",
        [ Alcotest.test_case "global hits and ablation" `Quick test_driver_hits ] );
      ( "fixed-bit",
        [
          Alcotest.test_case "known answers" `Quick test_fixed_bit_known;
          Alcotest.test_case "sound on the registry" `Quick test_fixed_bit_registry;
          Alcotest.test_case "sound on fuzz seeds" `Quick test_fixed_bit_fuzz;
        ] );
      ( "golden",
        List.map
          (fun ((n, p, _) as row) ->
            Alcotest.test_case (n ^ " " ^ p) `Quick (test_golden row))
          (golden_rows ()) );
      ( "fuzz-golden",
        List.map
          (fun ((s, p, _) as row) ->
            Alcotest.test_case (Printf.sprintf "seed %d %s" s p) `Quick
              (test_fuzz_golden row))
          (fuzz_golden_rows ()) );
    ]
