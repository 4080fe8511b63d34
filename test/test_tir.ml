(* Tests for the TIR layer: lowering, both interpreters, optimizer passes and
   source transforms.  The central property is differential: every pipeline
   (AST interp, CFG interp, optimized CFG interp, transformed program) must
   compute the same result and leave the same memory image. *)

open Trips_tir
open Ast.Infix

let value = Alcotest.testable Ty.pp_value ( = )

(* -- sample programs ------------------------------------------------- *)

let prog_sum_to_n =
  Ast.program
    [
      Ast.func "main" ~params:[ ("n", Ty.I64) ] ~ret:Ty.I64
        [
          set "acc" (i 0);
          for_ "k" (i 1) (v "n" +: i 1) [ set "acc" (v "acc" +: v "k") ];
          ret (v "acc");
        ];
    ]

let prog_fib =
  Ast.program
    [
      Ast.func "fib" ~params:[ ("n", Ty.I64) ] ~ret:Ty.I64
        [
          if_ (v "n" <: i 2) [ ret (v "n") ] [];
          ret (call "fib" [ v "n" -: i 1 ] +: call "fib" [ v "n" -: i 2 ]);
        ];
      Ast.func "main" ~params:[ ("n", Ty.I64) ] ~ret:Ty.I64 [ ret (call "fib" [ v "n" ]) ];
    ]

let prog_memory =
  Ast.program
    ~globals:[ Ast.global "arr" (64 * 8) ]
    [
      Ast.func "main" ~ret:Ty.I64
        [
          for_ "k" (i 0) (i 64) [ st8 (g "arr" +: (v "k" <<: i 3)) (v "k" *: v "k") ];
          set "acc" (i 0);
          for_ "k" (i 0) (i 64) [ set "acc" (v "acc" +: ld8 (g "arr" +: (v "k" <<: i 3))) ];
          ret (v "acc");
        ];
    ]

let prog_float =
  Ast.program
    [
      Ast.func "main" ~params:[ ("n", Ty.I64) ] ~ret:Ty.F64
        [
          set "s" (f 0.0);
          for_ "k" (i 1) (v "n") [ set "s" (v "s" +.: (f 1.0 /.: Un (Ast.Itof, v "k"))) ];
          ret (v "s");
        ];
    ]

let prog_control =
  Ast.program
    [
      Ast.func "main" ~params:[ ("n", Ty.I64) ] ~ret:Ty.I64
        [
          set "odd" (i 0);
          set "even" (i 0);
          for_ "k" (i 0) (v "n")
            [
              if_ (v "k" &: i 1)
                [ set "odd" (v "odd" +: v "k") ]
                [ set "even" (v "even" +: (v "k" *: i 3)) ];
            ];
          ret ((v "odd" <<: i 20) ^: v "even");
        ];
    ]

let prog_subword =
  Ast.program
    ~globals:[ Ast.global "buf" 256 ]
    [
      Ast.func "main" ~ret:Ty.I64
        [
          for_ "k" (i 0) (i 256) [ st1 (g "buf" +: v "k") (v "k" *: i 7) ];
          set "acc" (i 0);
          for_ "k" (i 0) (i 128)
            [ set "acc" (v "acc" +: ld2 (g "buf" +: (v "k" <<: i 1))) ];
          ret (v "acc");
        ];
    ]

let all_programs =
  [
    ("sum", prog_sum_to_n, [ Ty.Vi 100L ]);
    ("fib", prog_fib, [ Ty.Vi 12L ]);
    ("memory", prog_memory, []);
    ("float", prog_float, [ Ty.Vi 50L ]);
    ("control", prog_control, [ Ty.Vi 200L ]);
    ("subword", prog_subword, []);
  ]

let run_ast p args =
  let image = Image.build p.Ast.globals in
  let out = Interp.run_ast p image "main" args in
  (out.result, Image.checksum image)

let run_cfg ?(optimize = false) p args =
  let image = Image.build p.Ast.globals in
  let cfg = Lower.program p in
  if optimize then Opt.run_program cfg;
  let out = Interp.run_cfg cfg image "main" args in
  (out.result, Image.checksum image)

(* -- unit tests ------------------------------------------------------ *)

let test_sum_value () =
  let r, _ = run_ast prog_sum_to_n [ Ty.Vi 100L ] in
  Alcotest.(check (option value)) "gauss" (Some (Ty.Vi 5050L)) r

let test_fib_value () =
  let r, _ = run_ast prog_fib [ Ty.Vi 12L ] in
  Alcotest.(check (option value)) "fib 12" (Some (Ty.Vi 144L)) r

let test_memory_value () =
  let r, _ = run_ast prog_memory [] in
  (* sum of k^2 for k in 0..63 = 85344 *)
  Alcotest.(check (option value)) "sum squares" (Some (Ty.Vi 85344L)) r

let test_lower_matches_ast () =
  List.iter
    (fun (tag, p, args) ->
      let ra, ca = run_ast p args in
      let rc, cc = run_cfg p args in
      Alcotest.(check (option value)) (tag ^ " result") ra rc;
      Alcotest.(check int64) (tag ^ " memory") ca cc)
    all_programs

let test_opt_preserves () =
  List.iter
    (fun (tag, p, args) ->
      let ra, ca = run_cfg p args in
      let rc, cc = run_cfg ~optimize:true p args in
      Alcotest.(check (option value)) (tag ^ " result") ra rc;
      Alcotest.(check int64) (tag ^ " memory") ca cc)
    all_programs

let test_opt_reduces_work () =
  (* optimization should not increase the dynamic op count *)
  let p = prog_control in
  let image1 = Image.build p.Ast.globals in
  let cfg1 = Lower.program p in
  let base = (Interp.run_cfg cfg1 image1 "main" [ Ty.Vi 200L ]).counts in
  let image2 = Image.build p.Ast.globals in
  let cfg2 = Lower.program p in
  Opt.run_program cfg2;
  let opt = (Interp.run_cfg cfg2 image2 "main" [ Ty.Vi 200L ]).counts in
  Alcotest.(check bool) "ops not increased" true (opt.Interp.ops <= base.Interp.ops)

(* A slow converger: [Opt.run] runs 12 rounds on it, the last one
   confirming the fixpoint (shrunk from the random program of
   QCHECK_SEED=69535527, which takes 15), so under a 10-round cap a second
   [Opt.run_program] still changed it. *)
let prog_slow_fixpoint =
  Ast.program
    [
      Ast.func "main"
        ~params:[ ("a", Ty.I64); ("b", Ty.I64); ("c", Ty.I64); ("d", Ty.I64) ]
        ~ret:Ty.I64
        [
          set "b" (i 0);
          set "c" (i 1);
          set "d" (i 0 -: (v "b" *: i (-1)) <: i 0);
          set "b" (i 0 -: ((v "d" *: i 2) |: v "c"));
          set "d" (v "b" ^: (i 1 |: v "b"));
          ret (v "c" |: (v "d" -: i 1));
        ];
    ]

let test_opt_slow_fixpoint () =
  let cfg = Lower.program prog_slow_fixpoint in
  Opt.run_program cfg;
  let once = Format.asprintf "%a" Cfg.pp_program cfg in
  Opt.run_program cfg;
  Alcotest.(check string) "second run is a no-op" once
    (Format.asprintf "%a" Cfg.pp_program cfg);
  Alcotest.(check string) "folds to its value" "func main:\n  main.entry:\n    ret -1" once

(* The reference fixpoint loop: the five exported passes in [Opt.run]'s
   order, stopping when the [Format]-printed function stops changing. *)
let reference_opt (f : Cfg.func) =
  let printed () = Format.asprintf "%a" Cfg.pp_func f in
  let rec go n prev =
    if n = 0 then Alcotest.failf "%s: no fixpoint after 1000 rounds" f.Cfg.name;
    Opt.constfold f;
    Opt.copyprop f;
    Opt.cse f;
    Opt.dce f;
    Opt.simplify_branches f;
    let now = printed () in
    if now <> prev then go (n - 1) now
  in
  go 1000 (printed ())

(* [Opt.run]'s fingerprint must stop after the same round as the printed
   form, so both loops leave every function printing identically. *)
let check_same_fixpoint tag (p : Ast.program) =
  let a = Lower.program p and b = Lower.program p in
  Opt.run_program a;
  List.iter reference_opt b.Cfg.funcs;
  Alcotest.(check string) tag
    (Format.asprintf "%a" Cfg.pp_program b)
    (Format.asprintf "%a" Cfg.pp_program a)

(* As lowered, and inlined and unrolled as the C (2) and H (8) presets do. *)
let shapes ~unrolls (p : Ast.program) =
  ("", p)
  :: List.map
       (fun k ->
         (Printf.sprintf " inline+unroll%d" k, Transform.unroll_program ~factor:k (Transform.inline p)))
       unrolls

let test_fixpoint_registry () =
  List.iter
    (fun (b : Trips_workloads.Registry.bench) ->
      List.iter
        (fun (shape, p) -> check_same_fixpoint (b.Trips_workloads.Registry.name ^ shape) p)
        (shapes ~unrolls:[ 2; 8 ] b.Trips_workloads.Registry.program))
    Trips_workloads.Registry.all

let test_fixpoint_fuzz () =
  for seed = 1 to 200 do
    List.iter
      (fun (shape, p) -> check_same_fixpoint (Printf.sprintf "fuzz seed %d%s" seed shape) p)
      (shapes ~unrolls:[ 2 ] (Trips_fuzz.Gen.gen_program ~seed ()))
  done

(* -- register-indexed kills against the fold-based originals ---------- *)

(* The block-local [copyprop] and [cse] as they were before their kills
   were indexed by register: every kill folds over the whole table.
   Kept verbatim as the reference the indexed passes must match. *)
let fold_copyprop (f : Cfg.func) =
  let run_block (b : Cfg.block) =
    let known : (Cfg.vreg, Cfg.operand) Hashtbl.t = Hashtbl.create 16 in
    let resolve op =
      match op with
      | Cfg.Reg r -> ( match Hashtbl.find_opt known r with Some o -> o | None -> op)
      | _ -> op
    in
    let kill d =
      Hashtbl.remove known d;
      let stale =
        Hashtbl.fold
          (fun k v acc -> match v with Cfg.Reg r when r = d -> k :: acc | _ -> acc)
          known []
      in
      List.iter (Hashtbl.remove known) stale
    in
    let step ins =
      let ins = Cfg.map_ins_operands resolve ins in
      List.iter kill (Cfg.defs ins);
      (match ins with Cfg.Mov (d, src) when src <> Cfg.Reg d -> Hashtbl.replace known d src | _ -> ());
      ins
    in
    b.ins <- List.map step b.ins;
    b.term <- Cfg.map_term_operands resolve b.term
  in
  List.iter run_block f.blocks

type expr_key =
  | Kbin of Ast.binop * Cfg.operand * Cfg.operand
  | Kun of Ast.unop * Cfg.operand
  | Kload of Ty.t * Ty.width * Cfg.operand * int

let fold_cse (f : Cfg.func) =
  let run_block (b : Cfg.block) =
    let avail : (expr_key, Cfg.vreg) Hashtbl.t = Hashtbl.create 16 in
    let kill_reg d =
      let stale =
        Hashtbl.fold
          (fun k v acc ->
            let mentions =
              v = d
              ||
              match k with
              | Kbin (_, a, bb) -> a = Cfg.Reg d || bb = Cfg.Reg d
              | Kun (_, a) -> a = Cfg.Reg d
              | Kload (_, _, a, _) -> a = Cfg.Reg d
            in
            if mentions then k :: acc else acc)
          avail []
      in
      List.iter (Hashtbl.remove avail) stale
    in
    let kill_memory () =
      let stale =
        Hashtbl.fold
          (fun k _ acc -> match k with Kload _ -> k :: acc | _ -> acc)
          avail []
      in
      List.iter (Hashtbl.remove avail) stale
    in
    (* An expression keyed on its own destination (v3 = v3 + 1) must not be
       recorded: after the write, the key no longer denotes the result. *)
    let key_mentions key d =
      match key with
      | Kbin (_, a, b) -> a = Cfg.Reg d || b = Cfg.Reg d
      | Kun (_, a) | Kload (_, _, a, _) -> a = Cfg.Reg d
    in
    let lookup_or_record key d ins =
      match Hashtbl.find_opt avail key with
      | Some r ->
        kill_reg d;
        Cfg.Mov (d, Cfg.Reg r)
      | None ->
        kill_reg d;
        if not (key_mentions key d) then Hashtbl.replace avail key d;
        ins
    in
    let step ins =
      match ins with
      | Cfg.Bin (op, d, a, bb) -> lookup_or_record (Kbin (op, a, bb)) d ins
      | Cfg.Un (op, d, a) -> lookup_or_record (Kun (op, a)) d ins
      | Cfg.Load (t, w, d, a, off) -> lookup_or_record (Kload (t, w, a, off)) d ins
      | Cfg.Mov (d, _) ->
        kill_reg d;
        ins
      | Cfg.Store _ ->
        kill_memory ();
        ins
      | Cfg.Call (d, _, _) ->
        kill_memory ();
        Option.iter kill_reg d;
        ins
    in
    b.ins <- List.map step b.ins
  in
  List.iter run_block f.blocks

(* [Opt.cse] with a seeded fault: an expression is not indexed under its
   result register ([~results:false]) or under the registers its key
   mentions ([~operands:false]), so redefining that register leaves it
   available. *)
let cse_missing_index ~results ~operands (f : Cfg.func) =
  let mentions o d = match o with Cfg.Reg x -> x = d | _ -> false in
  let key_mentions key d =
    match key with
    | Kbin (_, a, b) -> mentions a d || mentions b d
    | Kun (_, a) | Kload (_, _, a, _) -> mentions a d
  in
  let avail : (expr_key, Cfg.vreg) Hashtbl.t = Hashtbl.create 16 in
  let keys_of : (Cfg.vreg, expr_key list) Hashtbl.t = Hashtbl.create 16 in
  let loads = ref [] in
  let index r k =
    Hashtbl.replace keys_of r (k :: Option.value ~default:[] (Hashtbl.find_opt keys_of r))
  in
  let kill_reg d =
    match Hashtbl.find_opt keys_of d with
    | None -> ()
    | Some ks ->
      Hashtbl.remove keys_of d;
      List.iter
        (fun k ->
          match Hashtbl.find_opt avail k with
          | Some v when v = d || key_mentions k d -> Hashtbl.remove avail k
          | _ -> ())
        ks
  in
  let record key d =
    Hashtbl.replace avail key d;
    if results then index d key;
    let operand = function Cfg.Reg r when operands -> index r key | _ -> () in
    match key with
    | Kbin (_, a, b) -> operand a; operand b
    | Kun (_, a) -> operand a
    | Kload (_, _, a, _) -> loads := key :: !loads; operand a
  in
  let lookup_or_record key d ins =
    match Hashtbl.find_opt avail key with
    | Some r -> kill_reg d; Cfg.Mov (d, Cfg.Reg r)
    | None -> kill_reg d; if not (key_mentions key d) then record key d; ins
  in
  let step ins =
    match ins with
    | Cfg.Bin (op, d, a, bb) -> lookup_or_record (Kbin (op, a, bb)) d ins
    | Cfg.Un (op, d, a) -> lookup_or_record (Kun (op, a)) d ins
    | Cfg.Load (t, w, d, a, off) -> lookup_or_record (Kload (t, w, a, off)) d ins
    | Cfg.Mov (d, _) -> kill_reg d; ins
    | Cfg.Store _ -> List.iter (Hashtbl.remove avail) !loads; loads := []; ins
    | Cfg.Call (d, _, _) ->
      List.iter (Hashtbl.remove avail) !loads;
      loads := [];
      Option.iter kill_reg d;
      ins
  in
  List.iter
    (fun (b : Cfg.block) ->
      Hashtbl.reset avail;
      Hashtbl.reset keys_of;
      loads := [];
      b.ins <- List.map step b.ins)
    f.blocks

let copy_func (f : Cfg.func) =
  { f with Cfg.blocks = List.map (fun (b : Cfg.block) -> { b with Cfg.ins = b.Cfg.ins }) f.Cfg.blocks }

(* Run [Opt.run]'s rounds on [f]; before each [copyprop] and [cse], copy
   the function and run the reference pass on the copy.  The name of the
   first pass whose output fingerprint differs, if any. *)
let first_divergence ~copyprop ~cse (f : Cfg.func) =
  let check name pass reference =
    let g = copy_func f in
    pass f;
    reference g;
    if String.equal (Opt.fingerprint f) (Opt.fingerprint g) then None else Some name
  in
  let rec go n prev =
    if n = 0 then None
    else begin
      Opt.constfold f;
      match check "copyprop" copyprop fold_copyprop with
      | Some _ as d -> d
      | None -> (
        match check "cse" cse fold_cse with
        | Some _ as d -> d
        | None ->
          Opt.dce f;
          Opt.simplify_branches f;
          let now = Opt.fingerprint f in
          if now <> prev then go (n - 1) now else None)
    end
  in
  go 64 (Opt.fingerprint f)

let divergences ~copyprop ~cse (p : Ast.program) =
  List.filter_map
    (fun (f : Cfg.func) ->
      Option.map (fun pass -> f.Cfg.name ^ ": " ^ pass) (first_divergence ~copyprop ~cse f))
    (Lower.program p).Cfg.funcs

(* [shapes ~unrolls:[2; 8]] are the optimizer's inputs at every preset:
   O0 as lowered, C and BB inlined and unrolled twice, H eight times. *)
let test_indexed_kills_registry () =
  List.iter
    (fun (b : Trips_workloads.Registry.bench) ->
      List.iter
        (fun (shape, p) ->
          Alcotest.(check (list string)) (b.Trips_workloads.Registry.name ^ shape) []
            (divergences ~copyprop:Opt.copyprop ~cse:Opt.cse p))
        (shapes ~unrolls:[ 2; 8 ] b.Trips_workloads.Registry.program))
    Trips_workloads.Registry.all

let test_indexed_kills_fuzz () =
  for seed = 1 to 200 do
    List.iter
      (fun (shape, p) ->
        Alcotest.(check (list string)) (Printf.sprintf "fuzz seed %d%s" seed shape) []
          (divergences ~copyprop:Opt.copyprop ~cse:Opt.cse p))
      (shapes ~unrolls:[ 2; 8 ] (Trips_fuzz.Gen.gen_program ~seed ()))
  done

(* Hand-built blocks, one per kill path.  No block of the registry or of
   fuzz seeds 1-200 redefines the result register of an expression that
   is still available, so only [result_redefined] reaches that kill. *)
let one_block_func name ins term =
  { Cfg.name; params = [ (0, Ty.I64) ]; ret = Some Ty.I64;
    blocks = [ { Cfg.label = name ^ ".entry"; ins; term } ]; next_vreg = 8 }

let result_redefined () =
  one_block_func "result_redefined"
    [ Cfg.Bin (Ast.Add, 1, Cfg.Reg 0, Cfg.Ci 1L);
      Cfg.Bin (Ast.Mul, 1, Cfg.Reg 0, Cfg.Ci 2L);
      Cfg.Bin (Ast.Add, 2, Cfg.Reg 0, Cfg.Ci 1L);
      Cfg.Bin (Ast.Add, 3, Cfg.Reg 1, Cfg.Reg 2) ]
    (Cfg.Ret (Some (Cfg.Reg 3)))

let copy_source_redefined () =
  one_block_func "copy_source_redefined"
    [ Cfg.Mov (1, Cfg.Reg 0);
      Cfg.Bin (Ast.Add, 0, Cfg.Reg 0, Cfg.Ci 1L);
      Cfg.Bin (Ast.Add, 2, Cfg.Reg 1, Cfg.Reg 0) ]
    (Cfg.Ret (Some (Cfg.Reg 2)))

let load_after_store () =
  one_block_func "load_after_store"
    [ Cfg.Load (Ty.I64, Ty.W8, 1, Cfg.Reg 0, 0);
      Cfg.Store (Ty.W8, Cfg.Reg 0, 8, Cfg.Ci 5L);
      Cfg.Load (Ty.I64, Ty.W8, 2, Cfg.Reg 0, 0);
      Cfg.Bin (Ast.Add, 3, Cfg.Reg 1, Cfg.Reg 2) ]
    (Cfg.Ret (Some (Cfg.Reg 3)))

let kill_cases = [ result_redefined; copy_source_redefined; load_after_store ]

let test_indexed_kills_known () =
  List.iter
    (fun case ->
      let f = case () in
      Alcotest.(check (option string)) f.Cfg.name None
        (first_divergence ~copyprop:Opt.copyprop ~cse:Opt.cse f))
    kill_cases;
  let f = result_redefined () in
  let before = Opt.fingerprint f in
  Opt.cse f;
  Alcotest.(check string) "v2 = v0 + 1 is recomputed after v1 is redefined" before
    (Opt.fingerprint f)

(* The differential checks are not vacuous: a [cse] whose index misses
   the registers keys mention diverges from the reference on the
   registry, and one whose index misses result registers on the
   hand-built block that redefines one. *)
let test_indexed_kills_mutant () =
  let caught_on_registry =
    List.exists
      (fun (b : Trips_workloads.Registry.bench) ->
        divergences ~copyprop:Opt.copyprop
          ~cse:(cse_missing_index ~results:true ~operands:false)
          b.Trips_workloads.Registry.program
        <> [])
      Trips_workloads.Registry.all
  in
  Alcotest.(check bool) "a cse that does not index its operands is caught" true
    caught_on_registry;
  Alcotest.(check (option string)) "a cse that does not index its results is caught"
    (Some "cse")
    (first_divergence ~copyprop:Opt.copyprop
       ~cse:(cse_missing_index ~results:false ~operands:true)
       (result_redefined ()))

let test_unroll_preserves () =
  List.iter
    (fun (tag, p, args) ->
      let ra, ca = run_ast p args in
      List.iter
        (fun factor ->
          let p' = Transform.unroll_program ~factor p in
          let ru, cu = run_ast p' args in
          Alcotest.(check (option value)) (Printf.sprintf "%s x%d result" tag factor) ra ru;
          Alcotest.(check int64) (Printf.sprintf "%s x%d memory" tag factor) ca cu)
        [ 2; 3; 4; 8 ])
    all_programs

let test_unroll_remainder () =
  (* trip counts not divisible by the factor must still be exact *)
  List.iter
    (fun n ->
      let args = [ Ty.Vi (Int64.of_int n) ] in
      let r0, _ = run_ast prog_sum_to_n args in
      let p' = Transform.unroll_program ~factor:4 prog_sum_to_n in
      let r1, _ = run_ast p' args in
      Alcotest.(check (option value)) (Printf.sprintf "n=%d" n) r0 r1)
    [ 0; 1; 2; 3; 4; 5; 7; 8; 9; 31 ]

let test_reassociate_int_exact () =
  (* integer reductions are exactly associative: the transform must
     preserve the value for any trip count *)
  List.iter
    (fun n ->
      let args = [ Ty.Vi (Int64.of_int n) ] in
      let r0, _ = run_ast prog_sum_to_n args in
      let p' =
        { prog_sum_to_n with Ast.funcs = List.map Transform.reassociate prog_sum_to_n.Ast.funcs }
      in
      let r1, _ = run_ast p' args in
      Alcotest.(check (option value)) (Printf.sprintf "n=%d" n) r0 r1)
    [ 0; 1; 2; 3; 4; 5; 7; 8; 9; 100 ]

let test_reassociate_splits_accumulators () =
  let p' = Transform.reassociate (Ast.find_func prog_sum_to_n "main") in
  let rec stmt_vars acc (s : Ast.stmt) =
    match s with
    | Ast.Let (x, _) -> x :: acc
    | Ast.For (_, _, _, _, b) -> List.fold_left stmt_vars acc b
    | Ast.If (_, t, e) -> List.fold_left stmt_vars (List.fold_left stmt_vars acc t) e
    | Ast.While (_, b) -> List.fold_left stmt_vars acc b
    | _ -> acc
  in
  let vars = List.fold_left stmt_vars [] p'.Ast.body in
  let partials = List.filter (fun v -> String.length v > 4 && String.sub v (String.length v - 5) 5 |> fun s -> String.length s = 5 && s.[0] = '$') vars in
  Alcotest.(check bool) "partial accumulators introduced" true (List.length partials >= 3)

let test_inline_preserves () =
  let p =
    Ast.program
      [
        Ast.func "sq" ~params:[ ("x", Ty.I64) ] ~ret:Ty.I64 [ ret (v "x" *: v "x") ];
        Ast.func "main" ~params:[ ("n", Ty.I64) ] ~ret:Ty.I64
          [
            set "acc" (i 0);
            for_ "k" (i 0) (v "n") [ set "acc" (v "acc" +: call "sq" [ v "k" ]) ];
            ret (v "acc");
          ];
      ]
  in
  let args = [ Ty.Vi 20L ] in
  let r0, _ = run_ast p args in
  let p' = Transform.inline p in
  let r1, _ = run_ast p' args in
  Alcotest.(check (option value)) "inline preserves" r0 r1;
  (* the inlined main must no longer call sq *)
  let main = Ast.find_func p' "main" in
  let rec expr_calls (e : Ast.expr) =
    match e with
    | Ast.Call ("sq", _) -> true
    | Ast.Bin (_, a, b) -> expr_calls a || expr_calls b
    | Ast.Un (_, a) | Ast.Load (_, _, a) -> expr_calls a
    | Ast.Call (_, args) -> List.exists expr_calls args
    | _ -> false
  in
  let rec stmt_calls (s : Ast.stmt) =
    match s with
    | Ast.Let (_, e) | Ast.Expr e -> expr_calls e
    | Ast.Return (Some e) -> expr_calls e
    | Ast.Return None -> false
    | Ast.Store (_, a, b) -> expr_calls a || expr_calls b
    | Ast.If (c, t, e) -> expr_calls c || List.exists stmt_calls t || List.exists stmt_calls e
    | Ast.While (c, b) -> expr_calls c || List.exists stmt_calls b
    | Ast.For (_, lo, hi, _, b) -> expr_calls lo || expr_calls hi || List.exists stmt_calls b
  in
  Alcotest.(check bool) "no call left" false (List.exists stmt_calls main.Ast.body)

let test_image_layout () =
  let globals = [ Ast.global "a" 10; Ast.global "b" ~align:64 8 ] in
  let img = Image.build globals in
  let a = Image.addr_of img "a" and b = Image.addr_of img "b" in
  Alcotest.(check bool) "disjoint" true (b >= a + 10);
  Alcotest.(check int) "aligned" 0 (b mod 64)

let test_image_init () =
  let init = Ast.Init.of_cells [| (Ty.W4, 0x11223344L); (Ty.W1, 0x7FL) |] in
  let img = Image.build [ Ast.global "g" ~init 8 ] in
  let base = Image.addr_of img "g" in
  Alcotest.(check int64) "word" 0x11223344L (Image.load_u img Ty.W4 base);
  Alcotest.(check int64) "byte" 0x7FL (Image.load_u img Ty.W1 (base + 4))

(* -- packed initializers ------------------------------------------- *)

let widths = [ Ty.W1; Ty.W2; Ty.W4; Ty.W8 ]

(* Values that fit no narrow width, the int64 extremes, and values whose
   low bytes alone would read back differently. *)
let init_values =
  [ 0L; 1L; -1L; 255L; 256L; 300L; 65535L; 65536L; 0xFFFFFFFFL; 0x1_0000_0000L;
    0x8877665544332211L; Int64.min_int; Int64.max_int ]

let cells_t =
  Alcotest.(array (pair (testable (fun ppf w -> Format.fprintf ppf "W%d" (Ty.bytes_of_width w)) ( = )) int64))

let test_init_roundtrip () =
  let cells =
    Array.of_list (List.concat_map (fun w -> List.map (fun v -> (w, v)) init_values) widths)
  in
  let t = Ast.Init.of_cells cells in
  Alcotest.check cells_t "cells (of_cells c) = c" cells (Ast.Init.cells t);
  Alcotest.(check int) "length" (Array.length cells) (Ast.Init.length t);
  let seen = ref [] in
  Ast.Init.iter (fun w v -> seen := (w, v) :: !seen) t;
  Alcotest.check cells_t "iter visits the cells in order" cells (Array.of_list (List.rev !seen));
  Alcotest.check cells_t "empty" [||] (Ast.Init.cells (Ast.Init.of_cells [||]));
  List.iter
    (fun w ->
      let vs = Array.of_list init_values in
      let order = ref [] in
      let t = Ast.Init.init w (Array.length vs) (fun k -> order := k :: !order; vs.(k)) in
      Alcotest.(check (list int)) "init calls f in index order"
        (List.init (Array.length vs) Fun.id) (List.rev !order);
      Alcotest.(check bool) "init = of_cells of the same cells" true
        (t = Ast.Init.of_cells (Array.map (fun v -> (w, v)) vs)))
    widths

(* The per-cell loop [Image.build] ran before initializers were packed,
   verbatim but for reading the cells through [Ast.Init.cells]. *)
let reference_mem ~mem_kb (globals : Ast.global list) =
  let symbols = Image.layout globals in
  let mem = Bytes.make (mem_kb * 1024) '\000' in
  List.iter
    (fun (global : Ast.global) ->
      match global.init with
      | None -> ()
      | Some cells ->
        let addr = ref (List.assoc global.gname symbols) in
        Array.iter
          (fun (w, v) ->
            let bytes = Ty.bytes_of_width w in
            for k = 0 to bytes - 1 do
              Bytes.set mem (!addr + k)
                (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * k)) 0xFFL)))
            done;
            addr := !addr + bytes)
          (Ast.Init.cells cells))
    globals;
  Bytes.to_string mem

let image_bytes img =
  String.init (Image.size img) (fun a -> Char.chr (Int64.to_int (Image.load_u img Ty.W1 a)))

(* Random global lists: mixed widths (runs of W8 among narrow cells),
   every alignment, no initializer, empty ones, and initializers that run
   past their global's size into the next one. *)
let random_globals rng =
  let module Rng = Trips_util.Rng in
  List.init (Rng.int rng 6) (fun k ->
      let size = Rng.int rng 80 in
      let align = List.nth [ 1; 2; 4; 8; 16; 64 ] (Rng.int rng 6) in
      let value () =
        if Rng.int rng 4 = 0 then List.nth init_values (Rng.int rng (List.length init_values))
        else Rng.next rng
      in
      let init =
        match Rng.int rng 5 with
        | 0 -> None
        | 1 -> Some (Ast.Init.of_cells [||])
        | _ ->
          let w8_run = Rng.bool rng in
          Some
            (Ast.Init.of_cells
               (Array.init (Rng.int rng 16) (fun _ ->
                    let w = if w8_run && Rng.bool rng then Ty.W8 else List.nth widths (Rng.int rng 4) in
                    (w, value ()))))
      in
      Ast.global (Printf.sprintf "g%d" k) ~align ?init size)

let test_image_init_exact () =
  let rng = Trips_util.Rng.create 0x1417L in
  for case = 1 to 200 do
    let globals = random_globals rng in
    let mem_kb = 5 + (List.fold_left (fun n (g : Ast.global) -> n + g.size + g.align) 0 globals / 1024) in
    let img = Image.build ~mem_kb globals in
    if image_bytes img <> reference_mem ~mem_kb globals then
      Alcotest.failf "case %d: image differs from the per-cell loop" case
  done

let test_init_pp () =
  let init =
    Ast.Init.of_cells
      [| (Ty.W1, 300L); (Ty.W2, -1L); (Ty.W4, 0x1_0000_0000L); (Ty.W8, Int64.min_int);
         (Ty.W8, Int64.max_int) |]
  in
  Alcotest.(check string) "mixed widths print whole values"
    "global m[24] align 4 = {w1:300, w2:-1, w4:4294967296, w8:-9223372036854775808, \
     w8:9223372036854775807}"
    (Format.asprintf "%a" Ast.pp_global (Ast.global "m" ~align:4 ~init 24))

let test_image_subword_load () =
  let img = Image.build [ Ast.global "g" 8 ] in
  let base = Image.addr_of img "g" in
  Image.store img Ty.W1 base (Ty.Vi 0xFFL);
  (* narrow integer loads zero-extend, like PowerPC lbz *)
  Alcotest.(check value) "zero-extended load" (Ty.Vi 0xFFL) (Image.load img Ty.I64 Ty.W1 base);
  Alcotest.(check int64) "raw" 0xFFL (Image.load_u img Ty.W1 base);
  Alcotest.(check value) "explicit sext" (Ty.Vi (-1L))
    (Semantics.unop (Ast.Sext Ty.W1) (Image.load img Ty.I64 Ty.W1 base))

let test_image_bounds () =
  let img = Image.build [] in
  Alcotest.check_raises "oob"
    (Semantics.Trap (Printf.sprintf "memory access out of range: 0x%x (8 bytes)" (Image.size img)))
    (fun () -> ignore (Image.load img Ty.I64 Ty.W8 (Image.size img)));
  (* a huge address from wrapped pointer arithmetic must trap, not
     overflow the addr+bytes bound and crash in Bytes.set *)
  Alcotest.check_raises "oob wrap"
    (Semantics.Trap
       (Printf.sprintf "memory access out of range: 0x%x (8 bytes)" (max_int - 3)))
    (fun () -> Image.store img Ty.W8 (max_int - 3) (Ty.Vi 0L))

(* Loads and stores at every width, pinned byte by byte: little-endian
   order, zero extension of narrow loads, truncation on narrow stores. *)
let test_image_widths () =
  let img = Image.build [ Ast.global "g" 16 ] in
  let base = Image.addr_of img "g" in
  let pattern = 0x8877665544332211L in
  Image.store img Ty.W8 base (Ty.Vi pattern);
  List.iteri
    (fun k byte ->
      Alcotest.(check int64) (Printf.sprintf "byte %d" k) byte
        (Image.load_u img Ty.W1 (base + k)))
    [ 0x11L; 0x22L; 0x33L; 0x44L; 0x55L; 0x66L; 0x77L; 0x88L ];
  Alcotest.(check int64) "W2" 0x2211L (Image.load_u img Ty.W2 base);
  Alcotest.(check int64) "W2 odd" 0x5544L (Image.load_u img Ty.W2 (base + 3));
  Alcotest.(check int64) "W4" 0x44332211L (Image.load_u img Ty.W4 base);
  Alcotest.(check int64) "W4 high bit" 0x88776655L (Image.load_u img Ty.W4 (base + 4));
  Alcotest.(check int64) "W8" pattern (Image.load_u img Ty.W8 base);
  Alcotest.(check value) "W1 zero-extends" (Ty.Vi 0x88L)
    (Image.load img Ty.I64 Ty.W1 (base + 7));
  Alcotest.(check value) "W2 zero-extends" (Ty.Vi 0x8877L)
    (Image.load img Ty.I64 Ty.W2 (base + 6));
  Alcotest.(check value) "W4 zero-extends" (Ty.Vi 0x88776655L)
    (Image.load img Ty.I64 Ty.W4 (base + 4));
  (* narrow stores keep only the low bytes and leave the rest alone *)
  Image.store img Ty.W8 (base + 8) (Ty.Vi (-1L));
  Image.store img Ty.W1 (base + 8) (Ty.Vi 0x1234L);
  Image.store img Ty.W2 (base + 10) (Ty.Vi 0xABCDEFL);
  Image.store img Ty.W4 (base + 12) (Ty.Vi 0x1122334455L);
  Alcotest.(check int64) "truncating stores" 0x22334455CDEFFF34L
    (Image.load_u img Ty.W8 (base + 8));
  (* floats travel as their IEEE bits *)
  Image.store img Ty.W8 base (Ty.Vf (-1.5));
  Alcotest.(check int64) "float bits" (Int64.bits_of_float (-1.5))
    (Image.load_u img Ty.W8 base);
  Alcotest.(check value) "float load" (Ty.Vf (-1.5)) (Image.load img Ty.F64 Ty.W8 base)

(* The bound is [addr <= size - bytes] at every width; negative and
   huge addresses trap instead of wrapping. *)
let test_image_width_bounds () =
  let img = Image.build [] in
  let size = Image.size img in
  let trap addr bytes =
    Semantics.Trap
      (Printf.sprintf "memory access out of range: 0x%x (%d bytes)" addr bytes)
  in
  List.iter
    (fun (w, bytes) ->
      let last = size - bytes in
      Image.store img w last (Ty.Vi 0x5AL);
      Alcotest.(check int64) (Printf.sprintf "last W%d" bytes) 0x5AL
        (Image.load_u img w last);
      Alcotest.check_raises (Printf.sprintf "load past end W%d" bytes)
        (trap (last + 1) bytes)
        (fun () -> ignore (Image.load_u img w (last + 1)));
      Alcotest.check_raises (Printf.sprintf "store past end W%d" bytes)
        (trap (last + 1) bytes)
        (fun () -> Image.store img w (last + 1) (Ty.Vi 0L));
      Alcotest.check_raises (Printf.sprintf "negative W%d" bytes) (trap (-1) bytes)
        (fun () -> ignore (Image.load_u img w (-1)));
      Alcotest.check_raises (Printf.sprintf "max_int W%d" bytes)
        (trap max_int bytes)
        (fun () -> Image.store img w max_int (Ty.Vi 0L)))
    [ (Ty.W1, 1); (Ty.W2, 2); (Ty.W4, 4); (Ty.W8, 8) ]

(* Operator corner cases the emulators rely on. *)
let test_semantics_quirks () =
  let bin op a b = Semantics.binop op a b in
  let nan = Ty.Vf Float.nan and one = Ty.Vf 1.0 in
  let t = Ty.Vi 1L and f = Ty.Vi 0L in
  (* float comparisons use a total order in which nan equals itself and
     sorts below every number *)
  Alcotest.(check value) "Feq nan nan" t (bin Ast.Feq nan nan);
  Alcotest.(check value) "Fne nan nan" f (bin Ast.Fne nan nan);
  Alcotest.(check value) "Flt nan 1.0" t (bin Ast.Flt nan one);
  Alcotest.(check value) "Fgt nan 1.0" f (bin Ast.Fgt nan one);
  Alcotest.(check value) "Fle 1.0 nan" f (bin Ast.Fle one nan);
  Alcotest.(check value) "Fge 1.0 nan" t (bin Ast.Fge one nan);
  Alcotest.(check value) "Feq -0 +0" t (bin Ast.Feq (Ty.Vf (-0.)) (Ty.Vf 0.));
  (* signed and unsigned compares split at min_int *)
  let mn = Ty.Vi Int64.min_int and z = Ty.Vi 0L in
  Alcotest.(check value) "Lt min_int 0" t (bin Ast.Lt mn z);
  Alcotest.(check value) "Ult min_int 0" f (bin Ast.Ult mn z);
  Alcotest.(check value) "Ult 0 min_int" t (bin Ast.Ult z mn);
  Alcotest.(check value) "Ule -1 min_int" f (bin Ast.Ule (Ty.Vi (-1L)) mn);
  Alcotest.(check value) "Ge min_int min_int" t (bin Ast.Ge mn mn);
  (* shift amounts are taken mod 64 *)
  Alcotest.(check value) "Shl by 65" (Ty.Vi 2L) (bin Ast.Shl t (Ty.Vi 65L));
  Alcotest.(check value) "Lsr by -1" t (bin Ast.Lsr mn (Ty.Vi (-1L)));
  Alcotest.(check value) "Asr by 127" (Ty.Vi (-1L)) (bin Ast.Asr mn (Ty.Vi 127L));
  (* division truncates toward zero and min_int / -1 wraps *)
  Alcotest.(check value) "Div -7 2" (Ty.Vi (-3L)) (bin Ast.Div (Ty.Vi (-7L)) (Ty.Vi 2L));
  Alcotest.(check value) "Rem -7 2" (Ty.Vi (-1L)) (bin Ast.Rem (Ty.Vi (-7L)) (Ty.Vi 2L));
  Alcotest.(check value) "Div min_int -1" mn (bin Ast.Div mn (Ty.Vi (-1L)));
  Alcotest.check_raises "Div by zero" (Semantics.Trap "integer division by zero")
    (fun () -> ignore (bin Ast.Div t z));
  Alcotest.check_raises "Rem by zero" (Semantics.Trap "integer remainder by zero")
    (fun () -> ignore (bin Ast.Rem t z));
  (* mixing an integer into a float operator is a type error *)
  Alcotest.check_raises "Fadd on ints" (Invalid_argument "Ty.as_float: integer value")
    (fun () -> ignore (bin Ast.Fadd t t));
  Alcotest.check_raises "Add on floats" (Invalid_argument "Ty.as_int: float value")
    (fun () -> ignore (bin Ast.Add one one))

(* The lane entry point against the value entry point: every operator on
   every pair of edge values, integer and float, including the pairs of
   the wrong type, gives the same bits and tag or raises the same
   exception.  The result slot is a fresh slot, the first operand's or
   the second's: the EDGE emulator passes an immediate operand in the
   result's own slot. *)
let edge_values =
  List.map (fun x -> Ty.Vi x)
    [ 0L; 1L; -1L; 2L; 7L; 63L; 64L; 65L; 127L; 0xFFL; 0x80L; 0x7FFF_FFFFL;
      0x8000_0000L; 0xFFFF_FFFFL; Int64.min_int; Int64.max_int ]
  @ List.map (fun f -> Ty.Vf f)
      [ 0.; -0.; 1.; -1.5; 0.5; Float.nan; Float.infinity; Float.neg_infinity;
        Float.max_float; Float.min_float; 4.9e-324; 9.3e18; -9.3e18 ]

let all_binops =
  Ast.[ Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Lsr; Asr; Eq; Ne; Lt; Le; Gt;
        Ge; Ult; Ule; Fadd; Fsub; Fmul; Fdiv; Feq; Fne; Flt; Fle; Fgt; Fge ]

let all_unops =
  Ast.[ Neg; Not; Fneg; Itof; Ftoi ]
  @ List.concat_map (fun w -> Ast.[ Sext w; Zext w ]) Ty.[ W1; W2; W4; W8 ]

(* an outcome as plain data: result bits and tag, or the exception *)
let outcome_of_value f =
  match f () with
  | Ty.Vi x -> Ok (x, Semantics.tag_int)
  | Ty.Vf x -> Ok (Int64.bits_of_float x, Semantics.tag_float)
  | exception e -> Error (Printexc.to_string e)

let outcome_of_lanes ~dst bits tags f =
  match f () with
  | () -> Ok (Bytes.get_int64_le bits (8 * dst), tags.(dst))
  | exception e -> Error (Printexc.to_string e)

let pp_outcome ppf = function
  | Ok (bits, tag) -> Format.fprintf ppf "0x%Lx/tag %d" bits tag
  | Error e -> Format.fprintf ppf "raised %s" e

let outcome = Alcotest.testable pp_outcome ( = )

let store bits tags k = function
  | Ty.Vi x ->
    Bytes.set_int64_le bits (8 * k) x;
    tags.(k) <- Semantics.tag_int
  | Ty.Vf f ->
    Bytes.set_int64_le bits (8 * k) (Int64.bits_of_float f);
    tags.(k) <- Semantics.tag_float

let test_semantics_lanes () =
  let bits = Bytes.make 32 '\255' and tags = Array.make 4 Semantics.tag_null in
  let cases = ref 0 in
  List.iter
    (fun op ->
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              let expect = outcome_of_value (fun () -> Semantics.binop op a b) in
              (* slots 0 and 1 hold a and b; the result goes to slot 2, 0 or 1 *)
              List.iter
                (fun dst ->
                  store bits tags 0 a;
                  store bits tags 1 b;
                  let got =
                    outcome_of_lanes ~dst bits tags (fun () ->
                        Semantics.binop_lanes op bits tags dst 0 1)
                  in
                  incr cases;
                  Alcotest.check outcome
                    (Format.asprintf "%s %a %a -> slot %d" (Ast.binop_name op)
                       Ty.pp_value a Ty.pp_value b dst)
                    expect got)
                [ 2; 0; 1 ])
            edge_values)
        edge_values)
    all_binops;
  List.iter
    (fun op ->
      List.iter
        (fun a ->
          let expect = outcome_of_value (fun () -> Semantics.unop op a) in
          List.iter
            (fun dst ->
              store bits tags 0 a;
              let got =
                outcome_of_lanes ~dst bits tags (fun () ->
                    Semantics.unop_lanes op bits tags dst 0)
              in
              incr cases;
              Alcotest.check outcome
                (Format.asprintf "%s %a -> slot %d" (Ast.unop_name op) Ty.pp_value a dst)
                expect got)
            [ 2; 0 ])
        edge_values)
    all_unops;
  Alcotest.(check int) "cases" ((29 * 29 * 29 * 3) + (13 * 29 * 2)) !cases;
  (* the divisor is read and tested before the dividend *)
  Alcotest.check_raises "zero divisor before a float dividend"
    (Semantics.Trap "integer division by zero") (fun () ->
      store bits tags 0 (Ty.Vf 1.);
      store bits tags 1 (Ty.Vi 0L);
      Semantics.binop_lanes Ast.Div bits tags 2 0 1)

let test_trap_div0 () =
  let p =
    Ast.program
      [ Ast.func "main" ~params:[ ("n", Ty.I64) ] ~ret:Ty.I64 [ ret (i 1 /: v "n") ] ]
  in
  let image = Image.build [] in
  Alcotest.check_raises "div0" (Semantics.Trap "integer division by zero") (fun () ->
      ignore (Interp.run_ast p image "main" [ Ty.Vi 0L ]))

let test_fuel () =
  let p = Ast.program [ Ast.func "main" ~ret:Ty.I64 [ while_ (i 1) [ set "x" (i 0) ]; ret (i 0) ] ] in
  let image = Image.build [] in
  Alcotest.check_raises "fuel" Interp.Out_of_fuel (fun () ->
      ignore (Interp.run_ast ~fuel:1000 p image "main" []))

(* -- property tests --------------------------------------------------- *)

(* Random straight-line integer programs: check AST/CFG/optimized-CFG all
   agree. *)
let gen_program =
  let open QCheck.Gen in
  let var_names = [| "a"; "b"; "c"; "d" |] in
  let gen_expr depth_seed =
    (* build a small expression tree over bound vars and constants *)
    let rec go depth st =
      if depth = 0 then
        (match int_bound 2 st with
        | 0 -> Ast.Int (Int64.of_int (int_range (-100) 100 st))
        | _ -> Ast.Var var_names.(int_bound 3 st))
      else
        let op =
          match int_bound 8 st with
          | 0 -> Ast.Add | 1 -> Ast.Sub | 2 -> Ast.Mul | 3 -> Ast.And
          | 4 -> Ast.Or | 5 -> Ast.Xor | 6 -> Ast.Lt | 7 -> Ast.Ge | _ -> Ast.Ne
        in
        Ast.Bin (op, go (depth - 1) st, go (depth - 1) st)
    in
    go depth_seed
  in
  let gen_stmt st =
    let x = var_names.(int_bound 3 st) in
    Ast.Let (x, gen_expr (1 + int_bound 2 st) st)
  in
  let gen st =
    let n = 1 + int_bound 12 st in
    let body = List.init n (fun _ -> gen_stmt st) in
    let final = Ast.Return (Some (gen_expr 2 st)) in
    Ast.program
      [
        Ast.func "main"
          ~params:[ ("a", Ty.I64); ("b", Ty.I64); ("c", Ty.I64); ("d", Ty.I64) ]
          ~ret:Ty.I64 (body @ [ final ]);
      ]
  in
  gen

let prop_pipelines_agree =
  QCheck.Test.make ~name:"AST/CFG/opt pipelines agree on random programs" ~count:300
    (QCheck.make gen_program) (fun p ->
      let args = [ Ty.Vi 3L; Ty.Vi (-7L); Ty.Vi 12L; Ty.Vi 100L ] in
      let ra, _ = run_ast p args in
      let rc, _ = run_cfg p args in
      let ro, _ = run_cfg ~optimize:true p args in
      ra = rc && rc = ro)

let prop_opt_idempotent =
  QCheck.Test.make ~name:"optimizer is idempotent on random programs" ~count:100
    (QCheck.make gen_program) (fun p ->
      let cfg = Lower.program p in
      Opt.run_program cfg;
      let printed1 = Format.asprintf "%a" Cfg.pp_program cfg in
      Opt.run_program cfg;
      let printed2 = Format.asprintf "%a" Cfg.pp_program cfg in
      printed1 = printed2)

let () =
  Alcotest.run "tir"
    [
      ( "interp",
        [
          Alcotest.test_case "sum value" `Quick test_sum_value;
          Alcotest.test_case "fib value" `Quick test_fib_value;
          Alcotest.test_case "memory value" `Quick test_memory_value;
          Alcotest.test_case "trap div0" `Quick test_trap_div0;
          Alcotest.test_case "fuel limit" `Quick test_fuel;
        ] );
      ( "lower",
        [ Alcotest.test_case "CFG matches AST on all samples" `Quick test_lower_matches_ast ] );
      ( "opt",
        [
          Alcotest.test_case "preserves semantics" `Quick test_opt_preserves;
          Alcotest.test_case "reduces dynamic work" `Quick test_opt_reduces_work;
          QCheck_alcotest.to_alcotest prop_pipelines_agree;
          QCheck_alcotest.to_alcotest prop_opt_idempotent;
          Alcotest.test_case "slow fixpoint reached" `Quick test_opt_slow_fixpoint;
          Alcotest.test_case "fingerprint stops like printing: registry" `Quick
            test_fixpoint_registry;
          Alcotest.test_case "fingerprint stops like printing: fuzz" `Quick
            test_fixpoint_fuzz;
          Alcotest.test_case "indexed kills match the folds: registry" `Quick
            test_indexed_kills_registry;
          Alcotest.test_case "indexed kills match the folds: fuzz" `Quick
            test_indexed_kills_fuzz;
          Alcotest.test_case "indexed kills match the folds: hand-built" `Quick
            test_indexed_kills_known;
          Alcotest.test_case "indexed kills: a seeded fault is caught" `Quick
            test_indexed_kills_mutant;
        ] );
      ( "transform",
        [
          Alcotest.test_case "unroll preserves" `Quick test_unroll_preserves;
          Alcotest.test_case "unroll remainder exact" `Quick test_unroll_remainder;
          Alcotest.test_case "reassociate int exact" `Quick test_reassociate_int_exact;
          Alcotest.test_case "reassociate splits accumulators" `Quick test_reassociate_splits_accumulators;
          Alcotest.test_case "inline preserves" `Quick test_inline_preserves;
        ] );
      ( "image",
        [
          Alcotest.test_case "layout" `Quick test_image_layout;
          Alcotest.test_case "init" `Quick test_image_init;
          Alcotest.test_case "sub-word zero extension" `Quick test_image_subword_load;
          Alcotest.test_case "bounds" `Quick test_image_bounds;
          Alcotest.test_case "widths and byte order" `Quick test_image_widths;
          Alcotest.test_case "bounds at every width" `Quick test_image_width_bounds;
          Alcotest.test_case "operator corner cases" `Quick test_semantics_quirks;
          Alcotest.test_case "lane and value entry points agree" `Quick
            test_semantics_lanes;
          Alcotest.test_case "packed init round-trips every width" `Quick test_init_roundtrip;
          Alcotest.test_case "packed init matches the per-cell loop" `Quick
            test_image_init_exact;
          Alcotest.test_case "packed init prints whole values" `Quick test_init_pp;
        ] );
    ]
