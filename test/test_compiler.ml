(* Differential tests for the TRIPS compiler: every preset must produce EDGE
   code whose architectural behaviour matches the TIR interpreter exactly
   (result value and final memory image), across control flow, predication,
   calls, loops, memory traffic and floats. *)

open Trips_tir
open Trips_edge
open Trips_compiler
open Ast.Infix

let value = Alcotest.testable Ty.pp_value ( = )

(* -- benchmark-like sample programs ---------------------------------- *)

(* Nested conditionals inside a loop: stresses predication and merges. *)
let prog_classify =
  Ast.program
    [
      Ast.func "main" ~params:[ ("n", Ty.I64) ] ~ret:Ty.I64
        [
          set "small" (i 0);
          set "mid" (i 0);
          set "big" (i 0);
          for_ "k" (i 0) (v "n")
            [
              set "x" ((v "k" *: i 2654435761) &: i 1023);
              if_ (v "x" <: i 100)
                [ set "small" (v "small" +: i 1) ]
                [
                  if_ (v "x" <: i 600)
                    [ set "mid" (v "mid" +: v "x") ]
                    [ set "big" (v "big" +: i 2) ];
                ];
            ];
          ret ((v "small" <<: i 40) ^: (v "mid" <<: i 10) ^: v "big");
        ];
    ]

(* Conditional stores: exercises null-completion paths. *)
let prog_sieve =
  Ast.program
    ~globals:[ Ast.global "flags" 512 ]
    [
      Ast.func "main" ~ret:Ty.I64
        [
          for_ "k" (i 0) (i 512) [ st1 (g "flags" +: v "k") (i 1) ];
          for_ "p" (i 2) (i 23)
            [
              if_ (ld1 (g "flags" +: v "p") =: i 1)
                [
                  set "q" (v "p" *: v "p");
                  while_ (v "q" <: i 512)
                    [ st1 (g "flags" +: v "q") (i 0); set "q" (v "q" +: v "p") ];
                ]
                [];
            ];
          set "count" (i 0);
          for_ "k" (i 2) (i 512)
            [
              if_ (ld1 (g "flags" +: v "k") =: i 1)
                [ set "count" (v "count" +: i 1) ]
                [];
            ];
          ret (v "count");
        ];
    ]

(* Recursion + helper calls. *)
let prog_calls =
  Ast.program
    [
      Ast.func "weight" ~params:[ ("x", Ty.I64) ] ~ret:Ty.I64
        [ ret ((v "x" &: i 7) +: i 1) ];
      Ast.func "walk" ~params:[ ("n", Ty.I64) ] ~ret:Ty.I64
        [
          if_ (v "n" <=: i 0) [ ret (i 1) ] [];
          ret (call "weight" [ v "n" ] +: call "walk" [ v "n" -: i 1 ]);
        ];
      Ast.func "main" ~params:[ ("n", Ty.I64) ] ~ret:Ty.I64
        [ ret (call "walk" [ v "n" ]) ];
    ]

(* Floating point reduction with a data-dependent branch. *)
let prog_float =
  Ast.program
    ~globals:[ Ast.global "vec" (128 * 8) ]
    [
      Ast.func "main" ~ret:Ty.F64
        [
          for_ "k" (i 0) (i 128)
            [
              stf
                (g "vec" +: (v "k" <<: i 3))
                (Ast.Un (Ast.Itof, (v "k" *: i 37) %: i 100) /.: f 10.0);
            ];
          set "s" (f 0.0);
          for_ "k" (i 0) (i 128)
            [
              set "x" (ldf (g "vec" +: (v "k" <<: i 3)));
              if_ (v "x" >.: f 5.0) [ set "s" (v "s" +.: v "x") ] [ set "s" (v "s" -.: v "x") ];
            ];
          ret (v "s");
        ];
    ]

(* Pointer chasing through a linked structure built in memory. *)
let prog_list =
  Ast.program
    ~globals:[ Ast.global "nodes" (64 * 16) ]
    [
      Ast.func "main" ~ret:Ty.I64
        [
          (* node k: value at +0, next pointer at +8; permuted order *)
          for_ "k" (i 0) (i 64)
            [
              set "base" (g "nodes" +: (v "k" <<: i 4));
              st8 (v "base") (v "k" *: i 3);
              st8 (v "base" +: i 8)
                (g "nodes" +: (((v "k" +: i 17) %: i 64) <<: i 4));
            ];
          set "p" (g "nodes");
          set "acc" (i 0);
          for_ "k" (i 0) (i 64)
            [ set "acc" (v "acc" +: ld8 (v "p")); set "p" (ld8 (v "p" +: i 8)) ];
          ret (v "acc");
        ];
    ]

(* Division guarded by a test: trapping ops must be predicated, not
   speculated. *)
let prog_guarded_div =
  Ast.program
    [
      Ast.func "main" ~params:[ ("n", Ty.I64) ] ~ret:Ty.I64
        [
          set "acc" (i 0);
          for_ "k" (i 0) (v "n")
            [
              set "d" (v "k" %: i 5);
              if_ (v "d" <>: i 0) [ set "acc" (v "acc" +: (i 1000 /: v "d")) ] [];
            ];
          ret (v "acc");
        ];
    ]

let samples =
  [
    ("classify", prog_classify, [ Ty.Vi 300L ]);
    ("sieve", prog_sieve, []);
    ("calls", prog_calls, [ Ty.Vi 25L ]);
    ("float", prog_float, []);
    ("list", prog_list, []);
    ("guarded-div", prog_guarded_div, [ Ty.Vi 50L ]);
  ]

module Preset = Trips_workloads.Preset

let presets = List.map Preset.driver Preset.all

let golden p args =
  let image = Image.build p.Ast.globals in
  let out = Interp.run_ast p image "main" args in
  (out.Interp.result, Image.checksum image)

let run_edge preset p args =
  let compiled = Driver.compile preset p in
  let image = Image.build p.Ast.globals in
  let r = Exec.run compiled image ~entry:"main" ~args in
  (r.Exec.ret, Image.checksum image, r.Exec.stats)

let test_differential () =
  List.iter
    (fun (tag, p, args) ->
      let exp_v, exp_m = golden p args in
      List.iter
        (fun (preset : Driver.preset) ->
          let got_v, got_m, _ = run_edge preset p args in
          let name = Printf.sprintf "%s/%s" tag preset.Driver.pname in
          Alcotest.(check (option value)) (name ^ " result") exp_v got_v;
          Alcotest.(check int64) (name ^ " memory") exp_m got_m)
        presets)
    samples

let test_block_limits_respected () =
  List.iter
    (fun (tag, p, _args) ->
      List.iter
        (fun (preset : Driver.preset) ->
          let compiled = Driver.compile preset p in
          ignore tag;
          Block.validate_program compiled;
          List.iter
            (fun (f : Block.func) ->
              List.iter
                (fun (b : Block.t) ->
                  let insts, reads, writes, exits = Block.size_stats b in
                  Alcotest.(check bool) "insts<=128" true (insts <= 128);
                  Alcotest.(check bool) "reads<=32" true (reads <= 32);
                  Alcotest.(check bool) "writes<=32" true (writes <= 32);
                  Alcotest.(check bool) "exits in 1..8" true (exits >= 1 && exits <= 8);
                  Alcotest.(check bool) "lsids<=32" true (Block.num_lsids b <= 32))
                f.Block.blocks)
            compiled.Block.funcs)
        presets)
    samples

let test_hand_fewer_blocks () =
  (* deeper unrolling packs more work per block, so the aggressive preset
     must execute fewer block instances on a loop benchmark *)
  let blocks preset =
    let compiled = Driver.compile preset prog_float in
    let image = Image.build prog_float.Ast.globals in
    let r = Exec.run compiled image ~entry:"main" ~args:[] in
    r.Exec.stats.Exec.blocks
  in
  let c = blocks Driver.compiled and h = blocks Driver.hand in
  Alcotest.(check bool)
    (Printf.sprintf "hand (%d) <= compiled (%d)" h c)
    true (h <= c)

let test_hyperblocks_fewer_blocks () =
  (* if-conversion must reduce executed block count vs basic blocks *)
  let blocks preset =
    let compiled = Driver.compile preset prog_classify in
    let image = Image.build prog_classify.Ast.globals in
    let r = Exec.run compiled image ~entry:"main" ~args:[ Ty.Vi 300L ] in
    r.Exec.stats.Exec.blocks
  in
  let hb = blocks Driver.compiled and bb = blocks Driver.basic_blocks in
  Alcotest.(check bool)
    (Printf.sprintf "hyperblocks (%d) < basic blocks (%d)" hb bb)
    true (hb < bb)

let test_predication_produces_squashed () =
  let compiled = Driver.compile Driver.compiled prog_classify in
  let image = Image.build prog_classify.Ast.globals in
  let r = Exec.run compiled image ~entry:"main" ~args:[ Ty.Vi 300L ] in
  Alcotest.(check bool) "some fetched-not-executed" true (r.Exec.stats.Exec.not_executed > 0);
  Alcotest.(check bool) "some moves" true (r.Exec.stats.Exec.k_move > 0)

let test_placement_capacity () =
  List.iter
    (fun (_, p, _) ->
      let compiled = Driver.compile Driver.compiled p in
      List.iter
        (fun (f : Block.func) ->
          List.iter
            (fun (b : Block.t) ->
              let occ = Array.make 16 0 in
              Array.iter (fun et -> occ.(et) <- occ.(et) + 1) b.Block.placement;
              Array.iter
                (fun c -> Alcotest.(check bool) "<=8 per tile" true (c <= 8))
                occ)
            f.Block.blocks)
        compiled.Block.funcs)
    samples

(* Property: random programs still agree through the whole pipeline. *)
let gen_program =
  let open QCheck.Gen in
  let vars = [| "a"; "b"; "c" |] in
  let rec expr depth st =
    if depth = 0 then
      match int_bound 2 st with
      | 0 -> Ast.Int (Int64.of_int (int_range (-64) 64 st))
      | _ -> Ast.Var vars.(int_bound 2 st)
    else
      let op =
        match int_bound 7 st with
        | 0 -> Ast.Add | 1 -> Ast.Sub | 2 -> Ast.Mul | 3 -> Ast.Xor
        | 4 -> Ast.And | 5 -> Ast.Lt | _ -> Ast.Ge
      in
      Ast.Bin (op, expr (depth - 1) st, expr (depth - 1) st)
  in
  let stmt st =
    match int_bound 3 st with
    | 0 | 1 -> Ast.Let (vars.(int_bound 2 st), expr 2 st)
    | _ ->
      Ast.If
        ( expr 1 st,
          [ Ast.Let (vars.(int_bound 2 st), expr 2 st) ],
          if bool st then [ Ast.Let (vars.(int_bound 2 st), expr 2 st) ] else [] )
  in
  let gen st =
    let body = List.init (1 + int_bound 8 st) (fun _ -> stmt st) in
    Ast.program
      [
        Ast.func "main"
          ~params:[ ("a", Ty.I64); ("b", Ty.I64); ("c", Ty.I64) ]
          ~ret:Ty.I64
          (body @ [ Ast.Return (Some (expr 2 st)) ]);
      ]
  in
  gen

let prop_compile_correct =
  QCheck.Test.make ~name:"compiled EDGE code matches the interpreter" ~count:150
    (QCheck.make gen_program) (fun p ->
      let args = [ Ty.Vi 5L; Ty.Vi (-3L); Ty.Vi 1000L ] in
      let exp_v, _ = golden p args in
      List.for_all
        (fun preset ->
          let got_v, _, _ = run_edge preset p args in
          got_v = exp_v)
        [ Driver.compiled; Driver.basic_blocks ])

(* -- register capacity ---------------------------------------------------- *)

(* [n] values live across a loop back edge: [n - 1] accumulators plus the
   loop counter.  The allocator colors onto r1..r127 (r0 is reserved), and
   the return-value pin does not interfere with them, so n = 127 is the
   most that fits.  O0 keeps the loop body free of extra temporaries that
   unrolling would make live across the same edge. *)
let prog_live_across n =
  let x j = Printf.sprintf "x%d" j in
  let xs = List.init (n - 1) Fun.id in
  Ast.program
    [
      Ast.func "main" ~ret:Ty.I64
        (List.map (fun j -> set (x j) (i ((3 * j) + 1))) xs
        @ [
            for_ "k" (i 0) (i 3) (List.map (fun j -> set (x j) (v (x j) +: v "k")) xs);
            ret (List.fold_left (fun acc j -> acc +: v (x j)) (i 0) xs);
          ]);
    ]

let test_register_capacity () =
  let cap = Isa.num_regs - 1 in
  let p = prog_live_across cap in
  let exp_v, _ = golden p [] in
  let got_v, _, _ = run_edge Driver.o0 p [] in
  Alcotest.(check (option value)) (Printf.sprintf "%d live values" cap) exp_v got_v;
  match Driver.compile Driver.o0 (prog_live_across (cap + 1)) with
  | _ -> Alcotest.failf "%d live values compiled" (cap + 1)
  | exception Failure msg ->
    Alcotest.(check string) (Printf.sprintf "%d live values" (cap + 1))
      "compile main: block main cannot fit: register pressure" msg

(* -- compile golden ------------------------------------------------------ *)

(* Per workload and preset: the EDGE block and instruction counts and a
   digest of the printed program plus every block's placement (the text
   shows register numbers but not tiles); per workload, a digest of the
   RISC baseline's code at unroll 1 and 4.  Any change to register
   numbering, scheduling or optimizer output changes a digest, even when
   every simulated cycle count stays put. *)

module Registry = Trips_workloads.Registry
module Codegen = Trips_risc.Codegen
module Risc_isa = Trips_risc.Isa

let edge_row name ptag =
  let preset = Preset.driver (Option.get (Preset.of_string ptag)) in
  let prog = Driver.compile preset (Registry.find name).Registry.program in
  let buf = Buffer.create 65536 in
  Buffer.add_string buf (Format.asprintf "%a" Block.pp_program prog);
  let blocks = ref 0 and insts = ref 0 in
  List.iter
    (fun (f : Block.func) ->
      List.iter
        (fun (b : Block.t) ->
          incr blocks;
          insts := !insts + Array.length b.Block.insts;
          Printf.bprintf buf "placement %s %s:" f.Block.fname b.Block.label;
          Array.iter (Printf.bprintf buf " %d") b.Block.placement;
          Buffer.add_char buf '\n')
        f.Block.blocks)
    prog.Block.funcs;
  Printf.sprintf "blocks=%d instructions=%d digest=%s" !blocks !insts
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let risc_digest name unroll =
  let prog = Codegen.compile ~unroll (Registry.find name).Registry.program in
  let buf = Buffer.create 65536 in
  List.iter
    (fun f -> Buffer.add_string buf (Format.asprintf "%a@." Risc_isa.pp_func f))
    prog.Risc_isa.funcs;
  Printf.bprintf buf "pool_base %d\n" prog.Risc_isa.pool_base;
  List.iter (fun (a, x) -> Printf.bprintf buf "pool %d %h\n" a x) prog.Risc_isa.pool;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Multi-function programs (calls, pinned argument registers) beside
   loop kernels with large hyperblocks. *)
let golden_fast = [ "ct"; "fft"; "802.11a"; "crafty"; "vortex" ]

let names = List.map (fun (b : Registry.bench) -> b.Registry.name) Registry.all

let edge_golden =
  Golden.table ~name:"edge" ~fixture:Compile_golden.edge
    ~key:(fun (name, ptag) -> "edge " ^ name ^ " " ^ ptag)
    ~fast:(fun (name, _) -> List.mem name golden_fast)
    ~row:(fun (name, ptag) -> edge_row name ptag)
    (List.concat_map
       (fun name -> List.map (fun p -> (name, Preset.name p)) Preset.all)
       names)

let risc_golden =
  Golden.table ~name:"risc" ~fixture:Compile_golden.risc
    ~key:(fun name -> "risc " ^ name)
    ~fast:(fun name -> List.mem name golden_fast)
    ~row:(fun name ->
      Printf.sprintf "unroll1=%s unroll4=%s" (risc_digest name 1)
        (risc_digest name 4))
    names

let () =
  Golden.run "compiler"
    ~fixtures:
      [
        Golden.file "compile_golden.ml"
          ~about:
            [ "Compiled code per workload (the compile golden in";
              "test_compiler.ml): EDGE blocks, instructions and code digest per";
              "preset, and the RISC code digest at unroll 1 and 4." ]
          [ edge_golden; risc_golden ];
      ]
    [
      ( "differential",
        [
          Alcotest.test_case "all presets match interpreter" `Quick test_differential;
          QCheck_alcotest.to_alcotest prop_compile_correct;
        ] );
      ( "structure",
        [
          Alcotest.test_case "block limits respected" `Quick test_block_limits_respected;
          Alcotest.test_case "hand executes fewer blocks" `Quick test_hand_fewer_blocks;
          Alcotest.test_case "if-conversion reduces block count" `Quick test_hyperblocks_fewer_blocks;
          Alcotest.test_case "predication squashes instructions" `Quick test_predication_produces_squashed;
          Alcotest.test_case "placement capacity" `Quick test_placement_capacity;
          Alcotest.test_case "register capacity" `Quick test_register_capacity;
        ] );
      ("golden", Golden.cases edge_golden @ Golden.cases risc_golden);
    ]
