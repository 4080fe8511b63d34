(* The differential fuzzer: generator and shrinker properties, the
   stable printers, backend semantics edge cases, corpus round-trips, and
   replay of the committed minimized repros under test/corpus/. *)

open Trips_fuzz
module Ast = Trips_tir.Ast
module Ty = Trips_tir.Ty
module Lower = Trips_tir.Lower
module Cfg = Trips_tir.Cfg
module Driver = Trips_compiler.Driver
module Json = Trips_util.Json
open Ast.Infix

(* NaN-safe structural equality: [compare] totals floats, [(=)] does not
   ([nan = nan] is false). *)
let ast_eq a b = compare (a : Ast.program) b = 0

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else String.sub haystack i nn = needle || go (i + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Stable printers (Ast.pp / Cfg.pp)                                   *)
(* ------------------------------------------------------------------ *)

let golden_prog : Ast.program =
  {
    globals =
      [
        { Ast.gname = "gA"; size = 32; align = 8;
          init = Some (Ast.Init.of_cells [| (Ty.W8, 7L); (Ty.W4, -1L) |]) };
      ];
    funcs =
      [
        { fname = "f"; params = [ ("d", Ty.I64) ]; ret = Some Ty.I64;
          body =
            [ if_ (v "d" <=: i 0) [ ret (i 1) ] [];
              ret (v "d" *: call "f" [ v "d" -: i 1 ]) ] };
        { fname = "main"; params = []; ret = Some Ty.I64;
          body =
            [ set "x" (i 0);
              for_ "k" (i 0) (i 4)
                [ set "x" (v "x" +: ld8 (g "gA" +: (v "k" <<: i 3))) ];
              set "w" (i 3);
              while_ (v "w" >: i 0) [ set "w" (v "w" -: i 1) ];
              stf (g "gA") (f 1.5);
              ret (v "x" ^: call "f" [ i 5 ]) ] };
      ];
  }

let golden_ast_text =
  "global gA[32] align 8 = {w8:7, w4:-1}\n\n\
   func f(d:i64) : i64 {\n\
  \  if (d <= 0) {\n\
  \    return 1;\n\
  \  }\n\
  \  return (d * f((d - 1)));\n\
   }\n\n\
   func main() : i64 {\n\
  \  x = 0;\n\
  \  for k = 0 .. 4 step 1 {\n\
  \    x = (x + load.i64.8[(&gA + (k << 3))]);\n\
  \  }\n\
  \  w = 3;\n\
  \  while (w > 0) {\n\
  \    w = (w - 1);\n\
  \  }\n\
  \  store.8[&gA] = 1.5;\n\
  \  return (x ^ f(5));\n\
   }\n"

let test_ast_pp_golden () =
  Alcotest.(check string) "Ast.pp golden" golden_ast_text
    (Ast.to_string golden_prog)

let test_cfg_pp_stable () =
  let render () = Cfg.to_string (Lower.program golden_prog) in
  let first = render () in
  List.iter
    (fun needle ->
      (* the lowering's structure is pinned by substrings, the full text
         by the determinism check below *)
      Alcotest.(check bool) ("Cfg.pp mentions " ^ needle) true
        (contains first needle))
    [ "global gA[32] align 8 = {w8:7, w4:-1}"; "func f:"; "func main:";
      "main.head0:"; "br "; "jmp "; "ret "; "store.8 [&gA + 0] = 1.5" ];
  Alcotest.(check string) "Cfg.pp deterministic" first (render ())

(* ------------------------------------------------------------------ *)
(* Generator properties                                                *)
(* ------------------------------------------------------------------ *)

let gen_seeds = List.init 25 (fun n -> n + 1)

let test_gen_well_typed () =
  List.iter
    (fun seed ->
      let p = Gen.gen_program ~seed () in
      (match Typecheck.check p with
      | Ok () -> ()
      | Error m -> Alcotest.failf "seed %d ill-typed: %s" seed m);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d has main" seed)
        true
        (List.exists (fun (f : Ast.func) -> f.fname = "main") p.funcs))
    gen_seeds

let test_gen_deterministic () =
  List.iter
    (fun seed ->
      let a = Gen.gen_program ~seed () in
      let b = Gen.gen_program ~seed () in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d reproducible" seed)
        true (ast_eq a b);
      Alcotest.(check string)
        (Printf.sprintf "seed %d prints identically" seed)
        (Ast.to_string a) (Ast.to_string b))
    gen_seeds

let test_gen_terminates_in_interp () =
  List.iter
    (fun seed ->
      let p = Gen.gen_program ~seed () in
      let img = Trips_tir.Image.build p.globals in
      match Trips_tir.Interp.run_ast ~fuel:50_000_000 p img "main" [] with
      | _ -> ()
      | exception e ->
        Alcotest.failf "seed %d: interp raised %s" seed (Printexc.to_string e))
    gen_seeds

(* ------------------------------------------------------------------ *)
(* Shrinker properties                                                 *)
(* ------------------------------------------------------------------ *)

(* A cheap oracle that still exposes the injected bug: one preset, only
   the functional-execution diff.  Small programs keep each candidate
   evaluation in the low milliseconds. *)
let light_oracle =
  Oracle.make ~presets:[ Driver.o0 ] ~check_verify:false ~check_lint:false
    ~check_transval:false ~check_sim:false ~check_risc:false ~check_cfg:false
    ~inject:Oracle.Geni_bump ~fuel:5_000_000 ()

let light_gen_cfg = { Gen.default_cfg with Gen.max_stmts = 10 }

(* The first seed whose injected bug fires under the light oracle. *)
let light_failure =
  lazy
    (let rec find seed =
       if seed > 60 then Alcotest.fail "no divergent seed under 60"
       else
         let p = Gen.gen_program ~cfg:light_gen_cfg ~seed () in
         match Oracle.run light_oracle p with
         | Oracle.Fail (f :: _) -> (seed, p, f)
         | _ -> find (seed + 1)
     in
     find 1)

let test_shrink_properties () =
  let _seed, p, f = Lazy.force light_failure in
  let r = Shrink.shrink ~max_evals:500 light_oracle f p in
  (match Typecheck.check r.Shrink.sh_program with
  | Ok () -> ()
  | Error m -> Alcotest.failf "shrunk program ill-typed: %s" m);
  Alcotest.(check bool) "size decreased or unchanged" true
    (r.Shrink.sh_size <= r.Shrink.sh_orig_size);
  if r.Shrink.sh_steps > 0 then
    Alcotest.(check bool) "strictly smaller after steps" true
      (r.Shrink.sh_size < r.Shrink.sh_orig_size);
  Alcotest.(check bool) "still fails the oracle" true
    (Oracle.fails_like light_oracle f r.Shrink.sh_program);
  (* determinism: the shrinker is a greedy RNG-free descent *)
  let r2 = Shrink.shrink ~max_evals:500 light_oracle f p in
  Alcotest.(check bool) "shrink reproducible" true
    (ast_eq r.Shrink.sh_program r2.Shrink.sh_program);
  Alcotest.(check int) "same step count" r.Shrink.sh_steps r2.Shrink.sh_steps

let test_shrink_candidates_decrease () =
  let _, p, _ = Lazy.force light_failure in
  let sz = Typecheck.size_program p in
  (* the shrinker additionally filters for a strict decrease; candidates
     themselves must never grow *)
  Seq.iter
    (fun c ->
      Alcotest.(check bool) "candidate does not grow" true
        (Typecheck.size_program c <= sz))
    (Shrink.candidates p)

(* ------------------------------------------------------------------ *)
(* Injected bugs are caught and shrunk small (the PR acceptance bar)   *)
(* ------------------------------------------------------------------ *)

let test_injected_bug_caught_and_small () =
  let _, p, f = Lazy.force light_failure in
  let r = Shrink.shrink ~max_evals:500 light_oracle f p in
  Alcotest.(check bool) "repro is at most 20 statements" true
    (Typecheck.stmt_count r.Shrink.sh_program <= 20)

(* ------------------------------------------------------------------ *)
(* Backend semantics edge cases (interp vs EDGE vs sim vs CFG vs RISC) *)
(* ------------------------------------------------------------------ *)

(* Full-width oracle on one preset: functional EDGE, cycle simulator,
   lowered-CFG interpreter and RISC backend all diff against the AST
   interpreter.  Each program is a handful of statements, so the whole
   battery stays fast. *)
let audit_oracle =
  Oracle.make ~presets:[ Driver.o0 ] ~check_transval:false ~fuel:5_000_000 ()

let audit_main body : Ast.program =
  {
    globals = [];
    funcs = [ { fname = "main"; params = []; ret = Some Ty.I64; body } ];
  }

let audit_cases : (string * Ast.stmt list) list =
  [
    (* OCaml's Int64.div/rem saturate on min_int / -1 (no trap); every
       backend must agree. *)
    ("div min_int -1", [ ret (i64 Int64.min_int /: i (-1)) ]);
    ("rem min_int -1", [ ret (i64 Int64.min_int %: i (-1)) ]);
    ("div by -1", [ ret (i 17 /: i (-1)) ]);
    ("rem sign", [ ret ((i (-17) %: i 5) ^: (i 17 %: i (-5))) ]);
    (* Shift counts are masked to [0,63] ([Semantics.shift_amount]):
       64 behaves as 0, 65 as 1, -1 as 63. *)
    ( "shl 63/64/65",
      [ ret ((i 1 <<: i 63) ^: (i 1 <<: i 64) ^: (i 1 <<: i 65)) ] );
    ( "shr negative count",
      [ ret ((i64 Int64.min_int >>: i (-1)) ^: (i (-1) >>>: i 63)) ] );
    (* Ftoi is Int64.of_float: NaN and out-of-range both yield min_int. *)
    ("ftoi overflow", [ ret (Ast.Un (Ast.Ftoi, f 1e30)) ]);
    ("ftoi -overflow", [ ret (Ast.Un (Ast.Ftoi, f (-1e30))) ]);
    ("ftoi nan", [ ret (Ast.Un (Ast.Ftoi, f 0. /.: f 0.)) ]);
    ( "ftoi fraction",
      [ ret (Ast.Un (Ast.Ftoi, f 2.75) ^: Ast.Un (Ast.Ftoi, f (-2.75))) ] );
    (* Itof rounds to nearest for magnitudes beyond 2^53. *)
    ( "itof extremes",
      [ ret
          (Ast.Un (Ast.Ftoi, Ast.Un (Ast.Itof, i64 Int64.max_int))
          ^: Ast.Un (Ast.Ftoi, Ast.Un (Ast.Itof, i64 Int64.min_int))) ] );
    (* Unsigned compares treat the sign bit as magnitude. *)
    ( "unsigned compares",
      [ ret
          (Ast.Bin (Ast.Ult, i (-1), i 1)
          ^: (i 2 *: Ast.Bin (Ast.Ult, i 0, i64 Int64.min_int))
          ^: (i 4 *: Ast.Bin (Ast.Ule, i64 Int64.min_int, i64 Int64.min_int)))
      ] );
  ]

let test_semantics_edges () =
  List.iter
    (fun (name, body) ->
      match Oracle.run audit_oracle (audit_main body) with
      | Oracle.Pass -> ()
      | Oracle.Invalid m -> Alcotest.failf "%s: invalid: %s" name m
      | Oracle.Fail (fl :: _) ->
        Alcotest.failf "%s: %s/%s: %s" name fl.Oracle.f_check
          fl.Oracle.f_config fl.Oracle.f_detail
      | Oracle.Fail [] -> Alcotest.failf "%s: empty failure" name)
    audit_cases

let test_div_by_zero_traps () =
  (* Division by zero traps in the reference interpreter, so the oracle
     reports the program invalid rather than diffing undefined behavior —
     the generator only emits guarded divisors. *)
  match Oracle.run audit_oracle (audit_main [ ret (i 1 /: i 0) ]) with
  | Oracle.Invalid m ->
    Alcotest.(check bool) "mentions the trap" true
      (contains m "division by zero")
  | Oracle.Pass -> Alcotest.fail "division by zero passed"
  | Oracle.Fail _ -> Alcotest.fail "division by zero diffed instead of trapping"

(* ------------------------------------------------------------------ *)
(* Corpus round-trip and replay                                        *)
(* ------------------------------------------------------------------ *)

let test_corpus_roundtrip () =
  List.iter
    (fun seed ->
      let p = Gen.gen_program ~seed () in
      let p' = Corpus.of_jprogram (Corpus.jprogram p) in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d JSON round-trips" seed)
        true (ast_eq p p'))
    [ 1; 2; 3; 4; 5 ];
  (* exact float/int64 extremes survive the string encodings *)
  let p = audit_main [ stf (i 0) (f (0. /. 0.)); ret (i64 Int64.min_int) ] in
  Alcotest.(check bool) "nan and min_int round-trip" true
    (ast_eq (Corpus.of_jprogram (Corpus.jprogram p)) p)

let test_corpus_entry_roundtrip () =
  let e =
    {
      Corpus.e_name = "t"; e_seed = 42; e_check = "exec"; e_config = "O0";
      e_detail = "d"; e_inject = Some "geni-bump";
      e_program = Gen.gen_program ~seed:3 ();
    }
  in
  let e' = Corpus.entry_of_json (Corpus.entry_to_json e) in
  Alcotest.(check bool) "entry round-trips" true (compare e e' = 0)

(* Replay every committed repro: re-apply the recorded injected bug and
   demand the oracle still fails with the recorded check kind. *)
(* dune runtest copies the corpus next to the executable; resolve it from
   there so `dune exec test/test_fuzz.exe` works from any directory. *)
let corpus_dir () =
  let beside = Filename.concat (Filename.dirname Sys.executable_name) "corpus" in
  if Sys.file_exists beside then beside else "corpus"

(* Each committed repro decodes and re-encodes to its own bytes.  The
   shrinker strips initializers, so a mixed-width one with out-of-width
   and extreme values is checked through the same text path. *)
let test_corpus_reencode () =
  let reencode text =
    match Json.parse text with
    | Error m -> Alcotest.fail m
    | Ok j -> Json.to_string (Corpus.jprogram (Corpus.of_jprogram j))
  in
  let init =
    Ast.Init.of_cells
      [| (Ty.W1, 300L); (Ty.W2, -1L); (Ty.W4, 0x1_0000_0000L); (Ty.W8, Int64.min_int);
         (Ty.W8, Int64.max_int) |]
  in
  let p = { golden_prog with Ast.globals = [ Ast.global "m" ~init 24 ] } in
  let text = Json.to_string (Corpus.jprogram p) in
  Alcotest.(check string) "mixed-width initializer re-encodes" text (reencode text);
  let dir = corpus_dir () in
  let files =
    Sys.readdir dir |> Array.to_list |> List.filter (fun f -> Filename.check_suffix f ".json")
  in
  Alcotest.(check bool) "corpus is non-empty" true (files <> []);
  List.iter
    (fun f ->
      let path = Filename.concat dir f in
      let text = In_channel.with_open_bin path In_channel.input_all in
      match Json.parse text with
      | Error m -> Alcotest.failf "%s: %s" path m
      | Ok j ->
        Alcotest.(check string) (path ^ " re-encodes byte for byte") text
          (Json.to_string (Corpus.entry_to_json (Corpus.entry_of_json j))))
    files

let test_corpus_replay () =
  let entries = Corpus.load_dir (corpus_dir ()) in
  Alcotest.(check bool) "corpus is non-empty" true (entries <> []);
  List.iter
    (fun (path, loaded) ->
      match loaded with
      | Error m -> Alcotest.failf "%s: %s" path m
      | Ok (e : Corpus.entry) ->
        (match Typecheck.check e.Corpus.e_program with
        | Ok () -> ()
        | Error m -> Alcotest.failf "%s: ill-typed: %s" path m);
        Alcotest.(check bool)
          (path ^ " is a small repro")
          true
          (Typecheck.stmt_count e.Corpus.e_program <= 20);
        let inject =
          match e.Corpus.e_inject with
          | None -> None
          | Some s -> (
            match Oracle.inject_of_string s with
            | Some _ as ok -> ok
            | None -> Alcotest.failf "%s: unknown inject %s" path s)
        in
        let base = Oracle.make ?inject ~fuel:5_000_000 () in
        let f =
          {
            Oracle.f_check = e.Corpus.e_check;
            f_config = e.Corpus.e_config;
            f_detail = e.Corpus.e_detail;
          }
        in
        let focused = Oracle.focus base f in
        Alcotest.(check bool)
          (Printf.sprintf "%s still fails %s/%s" path e.Corpus.e_check
             e.Corpus.e_config)
          true
          (Oracle.fails_like focused f e.Corpus.e_program))
    entries

(* ------------------------------------------------------------------ *)
(* Batch determinism                                                   *)
(* ------------------------------------------------------------------ *)

(* [Batch.run] promises a report independent of the worker count; the
   CLI runs it on several workers. *)
let test_batch_deterministic () =
  let run workers =
    Batch.run ~workers light_oracle ~gen_cfg:light_gen_cfg ~shrink_evals:200
      ~seed:1 ~count:4 ()
  in
  let a = run 1 and b = run 3 in
  Alcotest.(check string) "JSON reports byte-identical at 1 and 3 workers"
    (Json.to_string (Batch.to_json a))
    (Json.to_string (Batch.to_json b));
  Alcotest.(check int) "row per seed" 4 (List.length a.Batch.bt_rows)

let () =
  Alcotest.run "fuzz"
    [
      ( "printers",
        [
          Alcotest.test_case "Ast.pp golden" `Quick test_ast_pp_golden;
          Alcotest.test_case "Cfg.pp stable" `Quick test_cfg_pp_stable;
        ] );
      ( "generator",
        [
          Alcotest.test_case "well-typed" `Quick test_gen_well_typed;
          Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "terminates" `Quick test_gen_terminates_in_interp;
        ] );
      ( "shrinker",
        [
          Alcotest.test_case "properties" `Quick test_shrink_properties;
          Alcotest.test_case "candidates never grow" `Quick
            test_shrink_candidates_decrease;
          Alcotest.test_case "injected bug shrinks small" `Quick
            test_injected_bug_caught_and_small;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "edge cases agree" `Quick test_semantics_edges;
          Alcotest.test_case "div by zero traps" `Quick test_div_by_zero_traps;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "program round-trip" `Quick test_corpus_roundtrip;
          Alcotest.test_case "entry round-trip" `Quick
            test_corpus_entry_roundtrip;
          Alcotest.test_case "replay committed repros" `Quick
            test_corpus_replay;
          Alcotest.test_case "committed repros re-encode exactly" `Quick
            test_corpus_reencode;
        ] );
      ( "batch",
        [
          Alcotest.test_case "deterministic reports" `Quick
            test_batch_deterministic;
        ] );
    ]
