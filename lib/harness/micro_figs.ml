module Registry = Trips_workloads.Registry
module Exec = Trips_edge.Exec
module Block = Trips_edge.Block
module Isa = Trips_edge.Isa
module Core = Trips_sim.Core
module Stats = Trips_util.Stats
module Table = Trips_util.Table
module Image = Trips_tir.Image
module Ast = Trips_tir.Ast
module Blockpred = Trips_predictor.Blockpred
module Tournament = Trips_predictor.Tournament
module Target = Trips_predictor.Target
module Opn = Trips_noc.Opn

let fnum = Table.fnum

(* ------------------------------------------------------------------ *)
(* Fig 6: instructions in flight                                       *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  let t =
    Table.create ~title:"Figure 6: average instructions in the 1K window"
      [
        ("benchmark", Table.Left); ("code", Table.Left); ("total", Table.Right);
        ("useful", Table.Right); ("peak", Table.Right);
      ]
  in
  let row name tag (r : Core.result) =
    Table.add_row t
      [ name; tag; fnum (Core.avg_window r); fnum (Core.avg_window_useful r);
        string_of_int r.Core.timing.Core.peak_occupancy ]
  in
  List.iter
    (fun b ->
      row b.Registry.name "C" (Platforms.trips Platforms.C b);
      row b.Registry.name "H" (Platforms.trips Platforms.H b))
    Registry.simple_suite;
  Table.add_sep t;
  List.iter
    (fun b -> row b.Registry.name "C" (Platforms.trips Platforms.C b))
    (Registry.by_suite Registry.SpecInt @ Registry.by_suite Registry.SpecFp);
  Table.add_sep t;
  let mean benches q =
    Stats.mean (List.map (fun b -> Core.avg_window (Platforms.trips q b)) benches)
  in
  Table.add_row t
    [ "Simple mean"; "C"; fnum (mean Registry.simple_suite Platforms.C); "-"; "-" ];
  Table.add_row t
    [ "Simple mean"; "H"; fnum (mean Registry.simple_suite Platforms.H); "-"; "-" ];
  Table.add_row t
    [ "SPEC INT mean"; "C"; fnum (mean (Registry.by_suite Registry.SpecInt) Platforms.C);
      "-"; "-" ];
  Table.add_row t
    [ "SPEC FP mean"; "C"; fnum (mean (Registry.by_suite Registry.SpecFp) Platforms.C);
      "-"; "-" ];
  t

(* ------------------------------------------------------------------ *)
(* Fig 7: prediction breakdown                                         *)
(* ------------------------------------------------------------------ *)

(* One pass over a program's block stream, feeding each harness's step
   function every resolved next-block outcome. *)
let run_stream (prog : Block.program) (b : Registry.bench) harnesses =
  (* [harnesses]: existentially wrapped via closures returning counters *)
  let image = Image.build b.Registry.program.Ast.globals in
  let ids = Hashtbl.create 128 in
  let intern l =
    match Hashtbl.find_opt ids l with
    | Some i -> i
    | None ->
      let i = Hashtbl.length ids + 1 in
      Hashtbl.replace ids l i;
      i
  in
  let entries = Hashtbl.create 16 in
  List.iter (fun (f : Block.func) -> Hashtbl.replace entries f.Block.fname f.Block.entry)
    prog.Block.funcs;
  let shadow = ref [] in
  let steps = List.map (fun h -> h ()) harnesses in
  let useful = ref 0 in
  let _ =
    Exec.run prog image ~entry:"main" ~args:[]
      ~on_instance:(fun inst ->
        let blk = inst.Exec.iblock in
        Array.iteri
          (fun i f ->
            if
              f && inst.Exec.useful.(i)
              && Isa.classify blk.Block.insts.(i).Isa.op <> Isa.Kmove
            then incr useful)
          inst.Exec.fired;
        let target, kind, fall =
          match inst.Exec.exit_dest with
          | Isa.Xjump l -> (Some l, Blockpred.Kjump, 0)
          | Isa.Xcall (fname, retl) ->
            shadow := retl :: !shadow;
            (Hashtbl.find_opt entries fname, Blockpred.Kcall, intern retl)
          | Isa.Xret -> (
            match !shadow with
            | [] -> (None, Blockpred.Kret, 0)
            | retl :: rest ->
              shadow := rest;
              (Some retl, Blockpred.Kret, 0))
        in
        match target with
        | None -> ()
        | Some tl ->
          let block_id = intern blk.Block.label in
          let target = intern tl in
          let exits = Block.exits blk in
          let exit_idx =
            match List.find_index (fun (i, _) -> i = inst.Exec.exit_inst) exits with
            | Some k -> k
            | None -> 0
          in
          List.iter (fun step -> step ~block_id ~exit_idx ~kind ~target ~fallthrough:fall)
            steps)
  in
  !useful

(* Config A: a conventional per-branch tournament + BTB/CTB/RAS predicting
   basic-block code.  Multi-exit blocks are direction-predicted (exit 0 =
   "taken"); targets come from the target structures. *)
let conventional () =
  let bp = Tournament.create Tournament.alpha_like in
  let tp = Target.create { Target.btb_entries = 2048; ctb_entries = 512; ras_depth = 16 } in
  let made = ref 0 and miss = ref 0 in
  let step ~block_id ~exit_idx ~kind ~target ~fallthrough =
    incr made;
    let correct =
      match kind with
      | Blockpred.Kjump ->
        let dir = Tournament.predict bp ~pc:block_id in
        let actual_dir = exit_idx = 0 in
        Tournament.update bp ~pc:block_id ~taken:actual_dir;
        let key = (block_id * 8) + exit_idx in
        let tgt = Target.predict tp ~pc:key Target.Jump in
        Target.update tp ~pc:key Target.Jump ~target;
        dir = actual_dir && tgt = Some target
      | Blockpred.Kcall ->
        let key = (block_id * 8) + exit_idx in
        let tgt = Target.predict tp ~pc:key Target.Call in
        Target.update tp ~pc:key Target.Call ~target ~fallthrough;
        tgt = Some target
      | Blockpred.Kret ->
        let tgt = Target.predict tp ~pc:block_id Target.Ret in
        Target.update tp ~pc:block_id Target.Ret ~target;
        tgt = Some target
    in
    if not correct then incr miss
  in
  (step, made, miss)

let trips_predictor config () =
  let p = Blockpred.create config in
  let made = ref 0 and miss = ref 0 in
  let step ~block_id ~exit_idx ~kind ~target ~fallthrough =
    incr made;
    let predicted = Blockpred.predict p ~block:block_id in
    if predicted <> Some target then incr miss;
    Blockpred.update p
      { Blockpred.o_block = block_id; o_exit = exit_idx; o_kind = kind;
        o_target = target; o_fallthrough = fallthrough }
  in
  (step, made, miss)

let fig7_runs = Platforms.Memo.create ()

let fig7_bench (b : Registry.bench) =
  Platforms.Memo.find_or_compute fig7_runs b.Registry.name @@ fun () ->
  let bb_prog =
    Trips_compiler.Driver.compile Trips_compiler.Driver.basic_blocks b.Registry.program
  in
  let hb_prog = Platforms.edge_program Platforms.C b in
  let stepA, madeA, missA = conventional () in
  let stepB, madeB, missB = trips_predictor Blockpred.prototype () in
  let useful_bb = run_stream bb_prog b [ (fun () -> stepA); (fun () -> stepB) ] in
  let stepH, madeH, missH = trips_predictor Blockpred.prototype () in
  let stepI, madeI, missI = trips_predictor Blockpred.improved () in
  let useful_hb = run_stream hb_prog b [ (fun () -> stepH); (fun () -> stepI) ] in
  ignore madeB;
  ignore madeI;
  ( (!madeA, !missA, useful_bb), (!madeB, !missB, useful_bb),
    (!madeH, !missH, useful_hb), (!madeI, !missI, useful_hb) )

let warm_fig7 b = ignore (fig7_bench b)

let fig7 () =
  let t =
    Table.create
      ~title:
        "Figure 7: prediction breakdown -- A: conventional/basic-blocks, B: TRIPS/basic-blocks, H: TRIPS/hyperblocks, I: improved/hyperblocks (preds normalized to A)"
      [
        ("benchmark", Table.Left);
        ("A preds%", Table.Right); ("A MPKI", Table.Right);
        ("B MPKI", Table.Right);
        ("H preds%", Table.Right); ("H MPKI", Table.Right);
        ("I MPKI", Table.Right);
      ]
  in
  let mpki miss useful = 1000. *. Stats.ratio miss (max 1 useful) in
  let accum = Hashtbl.create 4 in
  let note suite col v =
    let key = (suite, col) in
    Hashtbl.replace accum key (v :: Option.value ~default:[] (Hashtbl.find_opt accum key))
  in
  List.iter
    (fun b ->
      let (ma, xa, ub), (_, xb, _), (mh, xh, uh), (_, xi, _) = fig7_bench b in
      let suite = b.Registry.suite in
      let row =
        [ b.Registry.name;
          "100.0";
          fnum (mpki xa ub);
          fnum (mpki xb ub);
          Table.fpct (100. *. Stats.ratio mh ma);
          fnum (mpki xh uh);
          fnum (mpki xi uh) ]
      in
      note suite `A (mpki xa ub);
      note suite `B (mpki xb ub);
      note suite `H (mpki xh uh);
      note suite `I (mpki xi uh);
      note suite `Preds (100. *. Stats.ratio mh ma);
      Table.add_row t row)
    (Registry.by_suite Registry.SpecInt @ Registry.by_suite Registry.SpecFp);
  Table.add_sep t;
  let mean suite col = Stats.mean (Option.value ~default:[] (Hashtbl.find_opt accum (suite, col))) in
  List.iter
    (fun suite ->
      Table.add_row t
        [ Registry.suite_name suite ^ " mean"; "100.0"; fnum (mean suite `A);
          fnum (mean suite `B); Table.fpct (mean suite `Preds); fnum (mean suite `H);
          fnum (mean suite `I) ])
    [ Registry.SpecInt; Registry.SpecFp ];
  t

(* ------------------------------------------------------------------ *)
(* Fig 8: bandwidth and OPN profile                                    *)
(* ------------------------------------------------------------------ *)

let clock_ghz = 0.366

let fig8 () =
  let t =
    Table.create
      ~title:"Figure 8 (left): achieved bandwidth at 366 MHz, hand-optimized vadd"
      [
        ("interface", Table.Left); ("bytes", Table.Right); ("cycles", Table.Right);
        ("bytes/cycle", Table.Right); ("GB/s", Table.Right);
      ]
  in
  let b = Registry.find "vadd" in
  let r = Platforms.trips Platforms.H b in
  let cyc = r.Core.timing.Core.cycles in
  let row name bytes =
    let bpc = Stats.ratio bytes cyc in
    Table.add_row t
      [ name; string_of_int bytes; string_of_int cyc; fnum bpc; fnum (bpc *. clock_ghz) ]
  in
  row "L1D <-> processor" r.Core.timing.Core.l1d_bytes;
  row "L2 <-> L1" r.Core.timing.Core.l2_bytes;
  row "memory <-> L2" r.Core.timing.Core.dram_bytes;
  t

let fig8_opn () =
  let t =
    Table.create ~title:"Figure 8 (right): OPN traffic profile (percent of packets by hops)"
      [
        ("benchmark", Table.Left); ("class", Table.Left); ("0", Table.Right);
        ("1", Table.Right); ("2", Table.Right); ("3", Table.Right); ("4", Table.Right);
        ("5+", Table.Right); ("avg hops", Table.Right);
      ]
  in
  let show name (r : Core.result) =
    let p = r.Core.opn in
    let total = max 1 p.Opn.total_packets in
    List.iter
      (fun cls_idx ->
        let buckets = p.Opn.packets.(cls_idx) in
        let class_total = Array.fold_left ( + ) 0 buckets in
        if class_total > 0 then
          Table.add_row t
            ([ name; Opn.class_name cls_idx ]
            @ List.init 6 (fun h -> Table.fpct (100. *. Stats.ratio buckets.(h) total))
            @ [ fnum r.Core.opn_average_hops ]))
      [ 0; 1; 2; 3; 5; 6 ];
    Table.add_sep t
  in
  show "vadd-hand" (Platforms.trips Platforms.H (Registry.find "vadd"));
  show "matrix-hand" (Platforms.trips Platforms.H (Registry.find "matrix"));
  show "SPEC-gcc" (Platforms.trips Platforms.C (Registry.find "gcc"));
  (* EEMBC mean: aggregate hop counts across the suite *)
  let agg = Array.make_matrix 8 6 0 in
  let tot = ref 0 and hops = ref 0 in
  List.iter
    (fun b ->
      let r = Platforms.trips Platforms.C b in
      let p = r.Core.opn in
      Array.iteri
        (fun c row -> Array.iteri (fun h n -> agg.(c).(h) <- agg.(c).(h) + n) row)
        p.Opn.packets;
      tot := !tot + p.Opn.total_packets;
      hops := !hops + p.Opn.total_hops)
    (Registry.by_suite Registry.Eembc);
  List.iter
    (fun cls_idx ->
      let class_total = Array.fold_left ( + ) 0 agg.(cls_idx) in
      if class_total > 0 then
        Table.add_row t
          ([ "EEMBC-mean"; Opn.class_name cls_idx ]
          @ List.init 6 (fun h -> Table.fpct (100. *. Stats.ratio agg.(cls_idx).(h) (max 1 !tot)))
          @ [ fnum (Stats.ratio !hops (max 1 !tot)) ]))
    [ 0; 1; 2; 3; 5; 6 ];
  t
