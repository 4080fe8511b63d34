module Registry = Trips_workloads.Registry
module Preset = Trips_workloads.Preset
module Exec = Trips_edge.Exec
module Block = Trips_edge.Block
module Stats = Trips_util.Stats
module Table = Trips_util.Table
module Image = Trips_tir.Image
module Ast = Trips_tir.Ast

let fnum = Table.fnum

(* Simple-suite benchmarks in the paper's Fig 3 order, then suite means. *)
let simple = Registry.simple_suite

let suite_means = [ Registry.Eembc; Registry.SpecInt; Registry.SpecFp ]

let per_block stat blocks = Stats.ratio stat (max 1 blocks)

(* ------------------------------------------------------------------ *)
(* Fig 3: block size and composition                                   *)
(* ------------------------------------------------------------------ *)

type comp = {
  c_size : float;
  c_mem : float;
  c_ctl : float;
  c_test : float;
  c_arith : float;
  c_moves : float;
  c_enu : float;      (* executed, not used *)
  c_fne : float;      (* fetched, not executed *)
}

(* Executed-class counts include speculatively-executed-but-unused
   instructions; the exec!used column reports that overlap separately, so
   arith+memory+control+tests+moves+fetch!exec = block size and exec!used
   shows how much of the executed work was squashed by predication. *)
let composition (s : Exec.stats) =
  let b = s.Exec.blocks in
  {
    c_size = per_block s.Exec.fetched b;
    c_mem = per_block s.Exec.k_memory b;
    c_ctl = per_block s.Exec.k_control b;
    c_test = per_block s.Exec.k_test b;
    c_arith = per_block s.Exec.k_arith b;
    c_moves = per_block s.Exec.k_move b;
    c_enu = per_block s.Exec.executed_not_used b;
    c_fne = per_block s.Exec.not_executed b;
  }

let fig3 () =
  let t =
    Table.create ~title:"Figure 3: TRIPS block size and composition (instructions per block)"
      [
        ("benchmark", Table.Left); ("code", Table.Left); ("block size", Table.Right);
        ("arith", Table.Right); ("memory", Table.Right); ("control", Table.Right);
        ("tests", Table.Right); ("moves", Table.Right); ("exec!used", Table.Right);
        ("fetch!exec", Table.Right);
      ]
  in
  let row name tag (s : Exec.stats) =
    let c = composition s in
    Table.add_row t
      [ name; tag; fnum c.c_size; fnum c.c_arith; fnum c.c_mem; fnum c.c_ctl;
        fnum c.c_test; fnum c.c_moves; fnum c.c_enu; fnum c.c_fne ]
  in
  List.iter
    (fun b ->
      row b.Registry.name "C" (Platforms.edge_stats Platforms.C b);
      row b.Registry.name "H" (Platforms.edge_stats Platforms.H b))
    simple;
  Table.add_sep t;
  let mean_of benches =
    (* aggregate totals across the suite, then per-block averages *)
    let agg = Exec.empty_stats () in
    List.iter
      (fun b ->
        let s = Platforms.edge_stats Platforms.C b in
        agg.Exec.blocks <- agg.Exec.blocks + s.Exec.blocks;
        agg.Exec.fetched <- agg.Exec.fetched + s.Exec.fetched;
        agg.Exec.k_arith <- agg.Exec.k_arith + s.Exec.k_arith;
        agg.Exec.k_memory <- agg.Exec.k_memory + s.Exec.k_memory;
        agg.Exec.k_control <- agg.Exec.k_control + s.Exec.k_control;
        agg.Exec.k_test <- agg.Exec.k_test + s.Exec.k_test;
        agg.Exec.k_move <- agg.Exec.k_move + s.Exec.k_move;
        agg.Exec.executed_not_used <- agg.Exec.executed_not_used + s.Exec.executed_not_used;
        agg.Exec.not_executed <- agg.Exec.not_executed + s.Exec.not_executed)
      benches;
    agg
  in
  row "Simple mean" "C" (mean_of simple);
  List.iter
    (fun suite ->
      row (Registry.suite_name suite ^ " mean") "C" (mean_of (Registry.by_suite suite)))
    suite_means;
  t

(* ------------------------------------------------------------------ *)
(* Fig 4: fetched instructions normalized to the RISC baseline         *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  let t =
    Table.create
      ~title:"Figure 4: TRIPS instructions normalized to PowerPC (1.0 = PowerPC executed)"
      [
        ("benchmark", Table.Left); ("code", Table.Left); ("useful", Table.Right);
        ("moves", Table.Right); ("exec!used", Table.Right); ("fetch!exec", Table.Right);
        ("total", Table.Right);
      ]
  in
  let ratios b q =
    let s = Platforms.edge_stats q b in
    let p = (Platforms.risc b).Trips_risc.Exec.executed in
    let r x = Stats.ratio x p in
    ( r s.Exec.useful, r s.Exec.k_move, r s.Exec.executed_not_used,
      r s.Exec.not_executed, r s.Exec.fetched )
  in
  let row name tag (u, m, e, f, tot) =
    Table.add_row t [ name; tag; fnum u; fnum m; fnum e; fnum f; fnum tot ]
  in
  List.iter
    (fun b ->
      row b.Registry.name "C" (ratios b Platforms.C);
      row b.Registry.name "H" (ratios b Platforms.H))
    simple;
  Table.add_sep t;
  let geo benches =
    let pick f = Stats.geomean (List.map f benches) in
    ( pick (fun b -> let u, _, _, _, _ = ratios b Platforms.C in max 1e-9 u),
      pick (fun b -> let _, m, _, _, _ = ratios b Platforms.C in max 1e-9 m),
      pick (fun b -> let _, _, e, _, _ = ratios b Platforms.C in max 1e-9 e),
      pick (fun b -> let _, _, _, f, _ = ratios b Platforms.C in max 1e-9 f),
      pick (fun b -> let _, _, _, _, t = ratios b Platforms.C in max 1e-9 t) )
  in
  row "Simple geomean" "C" (geo simple);
  List.iter
    (fun suite ->
      row (Registry.suite_name suite ^ " geomean") "C" (geo (Registry.by_suite suite)))
    suite_means;
  t

(* ------------------------------------------------------------------ *)
(* Fig 5: storage accesses normalized to the RISC baseline             *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  let t =
    Table.create
      ~title:
        "Figure 5: storage accesses normalized to PowerPC (memory: vs PPC loads+stores; registers: vs PPC register accesses)"
      [
        ("benchmark", Table.Left); ("code", Table.Left); ("mem ratio", Table.Right);
        ("reads", Table.Right); ("writes", Table.Right); ("operands", Table.Right);
        ("reg total", Table.Right);
      ]
  in
  let ratios b q =
    let s = Platforms.edge_stats q b in
    let p = Platforms.risc b in
    let pmem = p.Trips_risc.Exec.loads + p.Trips_risc.Exec.stores in
    let preg = p.Trips_risc.Exec.reg_reads + p.Trips_risc.Exec.reg_writes in
    let mem = Stats.ratio (s.Exec.loads_executed + s.Exec.stores_committed) pmem in
    let reads = Stats.ratio s.Exec.reads_fetched preg in
    let writes = Stats.ratio s.Exec.writes_committed preg in
    let ops = Stats.ratio (s.Exec.opn_et_et + s.Exec.opn_dt_et) preg in
    (mem, reads, writes, ops)
  in
  let row name tag (mem, r, w, o) =
    Table.add_row t [ name; tag; fnum mem; fnum r; fnum w; fnum o; fnum (r +. w +. o) ]
  in
  List.iter
    (fun b ->
      row b.Registry.name "C" (ratios b Platforms.C);
      row b.Registry.name "H" (ratios b Platforms.H))
    simple;
  Table.add_sep t;
  let geo benches =
    let all = List.map (fun b -> ratios b Platforms.C) benches in
    let pick f = Stats.geomean (List.map (fun x -> max 1e-9 (f x)) all) in
    ( pick (fun (m, _, _, _) -> m), pick (fun (_, r, _, _) -> r),
      pick (fun (_, _, w, _) -> w), pick (fun (_, _, _, o) -> o) )
  in
  row "Simple geomean" "C" (geo simple);
  List.iter
    (fun suite ->
      row (Registry.suite_name suite ^ " geomean") "C" (geo (Registry.by_suite suite)))
    suite_means;
  t

(* ------------------------------------------------------------------ *)
(* §4.4: dynamic code size                                             *)
(* ------------------------------------------------------------------ *)

(* Unique blocks fetched during execution. *)
let touched_blocks q (b : Registry.bench) =
  Platforms.memo
    (Printf.sprintf "codesize/%s/%s" (Preset.name q) b.Registry.name)
  @@ fun () ->
  let prog = Platforms.edge_program q b in
  let image = Image.build b.Registry.program.Ast.globals in
  let seen : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let _ =
    Exec.run prog image ~entry:"main" ~args:[]
      ~on_instance:(fun inst ->
        let blk = inst.Exec.iblock in
        if not (Hashtbl.mem seen blk.Block.label) then
          Hashtbl.replace seen blk.Block.label (Array.length blk.Block.insts))
  in
  Hashtbl.fold (fun _ n acc -> n :: acc) seen []

let warm_codesize b = ignore (touched_blocks Platforms.C b)

let codesize () =
  let t =
    Table.create
      ~title:"Section 4.4: dynamic code size relative to PowerPC (x = expansion factor)"
      [
        ("benchmark", Table.Left); ("TRIPS raw", Table.Right);
        ("TRIPS compressed", Table.Right); ("PPC bytes", Table.Right);
        ("x raw", Table.Right); ("x compressed", Table.Right);
      ]
  in
  let raws = ref [] and comps = ref [] in
  List.iter
    (fun b ->
      let sizes = touched_blocks Platforms.C b in
      (* raw: full 128-instruction frame + 128-byte header per block;
         compressed: 128-byte chunks of 32 instructions (§4.4) *)
      let raw = List.fold_left (fun acc _ -> acc + 128 + 512) 0 sizes in
      let comp =
        List.fold_left (fun acc n -> acc + 128 + (128 * ((max 1 n + 31) / 32))) 0 sizes
      in
      let ppc = (Platforms.risc b).Trips_risc.Exec.unique_pcs * 4 in
      let xr = Stats.ratio raw ppc and xc = Stats.ratio comp ppc in
      raws := xr :: !raws;
      comps := xc :: !comps;
      Table.add_row t
        [ b.Registry.name; string_of_int raw; string_of_int comp; string_of_int ppc;
          fnum xr; fnum xc ])
    (simple @ Registry.by_suite Registry.SpecInt @ Registry.by_suite Registry.SpecFp);
  Table.add_sep t;
  Table.add_row t
    [ "geomean"; "-"; "-"; "-"; fnum (Stats.geomean !raws); fnum (Stats.geomean !comps) ];
  t
