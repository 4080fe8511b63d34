module Registry = Trips_workloads.Registry
module Preset = Trips_workloads.Preset
module Exec = Trips_edge.Exec
module Core = Trips_sim.Core
module Ooo = Trips_superscalar.Ooo
module Ideal = Trips_limit.Ideal
module Cache = Trips_mem.Cache
module Stats = Trips_util.Stats
module Table = Trips_util.Table

let fnum = Table.fnum

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

let table1 () =
  let t =
    Table.create ~title:"Table 1: reference platforms (modeled configurations)"
      [
        ("system", Table.Left); ("width", Table.Right); ("window", Table.Right);
        ("mispredict", Table.Right); ("L1D", Table.Left); ("L2", Table.Left);
        ("DRAM latency", Table.Right);
      ]
  in
  Table.add_row t
    [ "TRIPS"; "16"; "1024"; "8+resolve"; "32 KB / 4 banks"; "1 MB NUCA";
      string_of_int Trips_mem.Hier.trips_dram.Trips_mem.Hier.dram_latency ];
  List.iter
    (fun (cfg : Ooo.config) ->
      Table.add_row t
        [ cfg.Ooo.name; string_of_int cfg.Ooo.width; string_of_int cfg.Ooo.rob;
          string_of_int cfg.Ooo.mispredict_penalty;
          Printf.sprintf "%d KB" cfg.Ooo.l1d.Cache.size_kb;
          (match cfg.Ooo.l2 with
          | Some l2 -> Printf.sprintf "%d KB" l2.Cache.size_kb
          | None -> "-");
          string_of_int cfg.Ooo.dram.Trips_mem.Hier.dram_latency ])
    [ Ooo.core2; Ooo.pentium4; Ooo.pentium3 ];
  t

(* ------------------------------------------------------------------ *)
(* Fig 9: IPC                                                          *)
(* ------------------------------------------------------------------ *)

let fig9 () =
  let t =
    Table.create ~title:"Figure 9: sustained TRIPS IPC (executed instructions per cycle)"
      [
        ("benchmark", Table.Left); ("code", Table.Left); ("IPC", Table.Right);
        ("useful IPC", Table.Right);
      ]
  in
  let row name tag r =
    Table.add_row t [ name; tag; fnum (Core.ipc r); fnum (Core.useful_ipc r) ]
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
  let mean benches q = Stats.mean (List.map (fun b -> Core.ipc (Platforms.trips q b)) benches) in
  Table.add_row t [ "Simple mean"; "C"; fnum (mean Registry.simple_suite Platforms.C); "-" ];
  Table.add_row t [ "Simple mean"; "H"; fnum (mean Registry.simple_suite Platforms.H); "-" ];
  Table.add_row t
    [ "SPEC INT mean"; "C"; fnum (mean (Registry.by_suite Registry.SpecInt) Platforms.C); "-" ];
  Table.add_row t
    [ "SPEC FP mean"; "C"; fnum (mean (Registry.by_suite Registry.SpecFp) Platforms.C); "-" ];
  t

(* ------------------------------------------------------------------ *)
(* Fig 10: limit study                                                 *)
(* ------------------------------------------------------------------ *)

let fig10 () =
  let t =
    Table.create
      ~title:"Figure 10: TRIPS vs ideal EDGE machine (IPC; ideal = perfect prediction/caches/routing)"
      [
        ("benchmark", Table.Left); ("code", Table.Left); ("hardware", Table.Right);
        ("ideal 1K", Table.Right); ("ideal 0-dispatch", Table.Right);
        ("ideal 128K", Table.Right);
      ]
  in
  let row name q b =
    let hw = Core.ipc (Platforms.trips q b) in
    let i1 = Ideal.ipc (Platforms.ideal Ideal.trips_window q b) in
    let i0 = Ideal.ipc (Platforms.ideal Ideal.zero_dispatch q b) in
    let ih = Ideal.ipc (Platforms.ideal Ideal.huge_window q b) in
    Table.add_row t [ name; Preset.name q; fnum hw; fnum i1; fnum i0; fnum ih ]
  in
  List.iter
    (fun b ->
      row b.Registry.name Platforms.C b;
      row b.Registry.name Platforms.H b)
    Registry.simple_suite;
  Table.add_sep t;
  List.iter
    (fun b -> row b.Registry.name Platforms.C b)
    (Registry.by_suite Registry.SpecInt @ Registry.by_suite Registry.SpecFp);
  t

(* ------------------------------------------------------------------ *)
(* Figs 11/12: speedups over the Core 2 (gcc) model                    *)
(* ------------------------------------------------------------------ *)

let speedup_columns b =
  let base = (Platforms.super Ooo.core2 ~icc:false b).Ooo.stats.Ooo.cycles in
  let s cyc = Stats.ratio base (max 1 cyc) in
  let trips_c = (Platforms.trips Platforms.C b).Core.timing.Core.cycles in
  let trips_h = (Platforms.trips Platforms.H b).Core.timing.Core.cycles in
  let c2icc = (Platforms.super Ooo.core2 ~icc:true b).Ooo.stats.Ooo.cycles in
  let p4 = (Platforms.super Ooo.pentium4 ~icc:false b).Ooo.stats.Ooo.cycles in
  let p3 = (Platforms.super Ooo.pentium3 ~icc:false b).Ooo.stats.Ooo.cycles in
  (s p3, s p4, s c2icc, s trips_c, s trips_h)

let speedup_table title benches ~with_hand =
  let t =
    Table.create ~title
      [
        ("benchmark", Table.Left); ("P3-gcc", Table.Right); ("P4-gcc", Table.Right);
        ("Core2-icc", Table.Right); ("TRIPS-C", Table.Right); ("TRIPS-H", Table.Right);
      ]
  in
  let rows = ref [] in
  List.iter
    (fun b ->
      let p3, p4, icc, tc, th = speedup_columns b in
      rows := (p3, p4, icc, tc, th) :: !rows;
      Table.add_row t
        [ b.Registry.name; fnum p3; fnum p4; fnum icc; fnum tc;
          (if with_hand then fnum th else "-") ])
    benches;
  Table.add_sep t;
  let geo f = Stats.geomean (List.map (fun r -> max 1e-9 (f r)) !rows) in
  Table.add_row t
    [ "geomean";
      fnum (geo (fun (a, _, _, _, _) -> a));
      fnum (geo (fun (_, a, _, _, _) -> a));
      fnum (geo (fun (_, _, a, _, _) -> a));
      fnum (geo (fun (_, _, _, a, _) -> a));
      (if with_hand then fnum (geo (fun (_, _, _, _, a) -> a)) else "-") ];
  t

let fig11 () =
  speedup_table
    "Figure 11: simple-benchmark speedup over the Core 2 (gcc) model (cycles)"
    Registry.simple_suite ~with_hand:true

let fig12 () =
  let t =
    speedup_table "Figure 12: SPEC speedup over the Core 2 (gcc) model (cycles)"
      (Registry.by_suite Registry.SpecInt @ Registry.by_suite Registry.SpecFp)
      ~with_hand:false
  in
  (* the paper also reports the EEMBC geomean on this figure *)
  let eembc = Registry.by_suite Registry.Eembc in
  let tc =
    Stats.geomean
      (List.map
         (fun b ->
           let _, _, _, c, _ = speedup_columns b in
           max 1e-9 c)
         eembc)
  in
  Table.add_row t [ "EEMBC geomean (TRIPS-C)"; "-"; "-"; "-"; fnum tc; "-" ];
  t

(* ------------------------------------------------------------------ *)
(* Table 3                                                             *)
(* ------------------------------------------------------------------ *)

let table3 () =
  let t =
    Table.create
      ~title:"Table 3: SPEC events per 1000 useful TRIPS instructions (and window occupancy)"
      [
        ("benchmark", Table.Left);
        ("C2 br miss", Table.Right); ("TRIPS br miss", Table.Right);
        ("call/ret miss", Table.Right); ("C2 I$ miss", Table.Right);
        ("TRIPS I$ miss", Table.Right); ("load flush", Table.Right);
        ("blk sz x8", Table.Right); ("useful in flight", Table.Right);
      ]
  in
  List.iter
    (fun b ->
      let r = Platforms.trips Platforms.C b in
      let useful = max 1 r.Core.exec.Exec.useful in
      let per1000 x = 1000. *. Stats.ratio x useful in
      let c2 = (Platforms.super Ooo.core2 ~icc:false b).Ooo.stats in
      let avg_block = Stats.ratio r.Core.exec.Exec.fetched r.Core.exec.Exec.blocks in
      Table.add_row t
        [ b.Registry.name;
          fnum (per1000 c2.Ooo.branch_mispredicts);
          fnum (per1000 r.Core.timing.Core.branch_mispredicts);
          fnum (per1000 r.Core.timing.Core.callret_mispredicts);
          fnum (per1000 c2.Ooo.icache_misses);
          fnum (per1000 r.Core.timing.Core.icache_misses);
          fnum (per1000 r.Core.timing.Core.load_flushes);
          fnum (avg_block *. 8.);
          fnum (Core.avg_window_useful r) ])
    (Registry.by_suite Registry.SpecInt @ Registry.by_suite Registry.SpecFp);
  t

(* ------------------------------------------------------------------ *)
(* §6: FLOPS per cycle on matrix multiply                              *)
(* ------------------------------------------------------------------ *)

let flops () =
  let t =
    Table.create ~title:"Section 6: matrix multiply FLOPS per cycle (hand-optimized)"
      [ ("system", Table.Left); ("flops", Table.Right); ("cycles", Table.Right);
        ("FPC", Table.Right) ]
  in
  let b = Registry.find "matrix" in
  let r = Platforms.trips Platforms.H b in
  Table.add_row t
    [ "TRIPS (hand)"; string_of_int r.Core.exec.Exec.flops;
      string_of_int r.Core.timing.Core.cycles;
      fnum (Stats.ratio r.Core.exec.Exec.flops r.Core.timing.Core.cycles) ];
  List.iter
    (fun (cfg : Ooo.config) ->
      let s = (Platforms.super cfg ~icc:true b).Ooo.stats in
      Table.add_row t
        [ cfg.Ooo.name ^ " (icc)"; string_of_int s.Ooo.flops; string_of_int s.Ooo.cycles;
          fnum (Stats.ratio s.Ooo.flops s.Ooo.cycles) ])
    [ Ooo.core2; Ooo.pentium4; Ooo.pentium3 ];
  t
