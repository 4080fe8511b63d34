(* Walk one small function through every stage of the TRIPS compiler:
   TIR source, lowered CFG, optimized CFG, hyperblocks after if-conversion,
   and the final EDGE block with its tile placement.

     dune exec examples/compiler_pipeline.exe *)

open Trips_tir
open Ast.Infix
module HB = Trips_compiler.Hyperblock

let program =
  Ast.program
    [
      Ast.func "main" ~params:[ ("n", Ty.I64) ] ~ret:Ty.I64
        [
          set "acc" (i 0);
          for_ "k" (i 0) (v "n")
            [
              if_ (v "k" &: i 1)
                [ set "acc" (v "acc" +: (v "k" *: i 3)) ]
                [ set "acc" (v "acc" ^: v "k") ];
            ];
          ret (v "acc");
        ];
    ]

let rule title = Printf.printf "\n----- %s -----\n" title

let () =
  rule "TIR source";
  List.iter (fun f -> Format.printf "%a@." Ast.pp_func f) program.Ast.funcs;

  rule "lowered CFG";
  let cfg = Lower.program program in
  Format.printf "%a@." Cfg.pp_program cfg;

  rule "optimized CFG";
  Opt.run_program cfg;
  Format.printf "%a@." Cfg.pp_program cfg;

  rule "hyperblocks (if-converted regions)";
  let fn = Cfg.find_func cfg "main" in
  let hf = HB.form HB.default_budget fn in
  List.iter (fun hb -> Format.printf "%a@." HB.pp_hblock hb) hf.HB.hblocks;

  rule "EDGE blocks (dataflow + fanout + placement)";
  let compiled = Trips_compiler.Driver.compile Trips_compiler.Driver.compiled program in
  Format.printf "%a@." Trips_edge.Block.pp_program compiled;

  rule "tile placement of the loop block";
  let f = List.hd compiled.Trips_edge.Block.funcs in
  let blk = List.nth f.Trips_edge.Block.blocks (min 1 (List.length f.Trips_edge.Block.blocks - 1)) in
  Printf.printf "block %s: instruction -> execution tile (4x4 grid)\n"
    blk.Trips_edge.Block.label;
  Array.iteri
    (fun i et ->
      let r, c = Trips_edge.Isa.tile_position et in
      Printf.printf "  I%-3d -> ET%-2d (row %d, col %d)\n" i et r c)
    blk.Trips_edge.Block.placement;

  rule "run it";
  let image = Image.build [] in
  let r = Trips_edge.Exec.run compiled image ~entry:"main" ~args:[ Ty.Vi 20L ] in
  Printf.printf "main(20) = %s\n"
    (match r.Trips_edge.Exec.ret with Some v -> Ty.value_to_string v | None -> "-")
