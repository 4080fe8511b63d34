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
  let init = [| (Ty.W4, 0x11223344L); (Ty.W1, 0x7FL) |] in
  let img = Image.build [ Ast.global "g" ~init 8 ] in
  let base = Image.addr_of img "g" in
  Alcotest.(check int64) "word" 0x11223344L (Image.load_u img Ty.W4 base);
  Alcotest.(check int64) "byte" 0x7FL (Image.load_u img Ty.W1 (base + 4))

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
        ] );
    ]
