module Registry = Trips_workloads.Registry
module Ooo = Trips_superscalar.Ooo
module Ideal = Trips_limit.Ideal

type experiment = {
  id : string;
  title : string;
  paper_claim : string;
  run : unit -> Trips_util.Table.t;
  cache : bool;
  warm : (unit -> unit) list;
}

(* ------------------------------------------------------------------ *)
(* Cache identity                                                      *)
(* ------------------------------------------------------------------ *)

(* Bump when a table's layout or derivation changes without any config
   changing, so stale cached results cannot survive a refactor. *)
let schema = 1

(* Everything a result depends on besides the experiment id: the modeled
   platform configurations and the full workload set (names, programs,
   hand-written EDGE code).  All of these are closure-free data, so one
   Marshal digest fingerprints the lot. *)
let fingerprint =
  lazy
    (let deps =
       ( ( Trips_sim.Core.prototype,
           Ooo.core2,
           Ooo.pentium4,
           Ooo.pentium3 ),
         ( Ideal.trips_window,
           Ideal.zero_dispatch,
           Ideal.huge_window,
           Trips_predictor.Blockpred.prototype,
           Trips_predictor.Blockpred.improved ),
         List.map
           (fun (b : Registry.bench) ->
             (b.Registry.name, b.Registry.program, b.Registry.hand_edge))
           Registry.all )
     in
     Digest.to_hex (Digest.string (Marshal.to_string deps [])))

let content_fingerprint () = Lazy.force fingerprint

let cache_key_of id =
  Printf.sprintf "%s/schema%d/%s" id schema (Lazy.force fingerprint)

(* ------------------------------------------------------------------ *)
(* Warm sub-jobs: the per-benchmark simulations each figure consumes,   *)
(* exposed so the engine can run them concurrently before [run] does    *)
(* the (memoized, cheap) table assembly.                                *)
(* ------------------------------------------------------------------ *)

let simple = Registry.simple_suite
let spec () = Registry.by_suite Registry.SpecInt @ Registry.by_suite Registry.SpecFp
let eembc () = Registry.by_suite Registry.Eembc

let w_edge q b () = ignore (Platforms.edge_stats q b)
let w_risc b () = ignore (Platforms.risc b)
let w_trips q b () = ignore (Platforms.trips q b)
let w_super cfg icc b () = ignore (Platforms.super cfg ~icc b)
let w_ideal cfg q b () = ignore (Platforms.ideal cfg q b)

let both f l = List.concat_map (fun b -> [ f Platforms.C b; f Platforms.H b ]) l
let only_c f l = List.map (fun b -> f Platforms.C b) l

let warm_edge_figs () =
  both w_edge simple @ only_c w_edge (eembc () @ spec ())

let warm_risc_all () = List.map w_risc (simple @ eembc () @ spec ())

let warm_trips_main () = both w_trips simple @ only_c w_trips (spec ())

(* every column speedup_columns reads for one benchmark *)
let warm_speedup b =
  [
    w_super Ooo.core2 false b; w_super Ooo.core2 true b;
    w_super Ooo.pentium4 false b; w_super Ooo.pentium3 false b;
    w_trips Platforms.C b; w_trips Platforms.H b;
  ]

let experiment ?(cache = true) ~id ~title ~claim ~warm run =
  {
    id;
    title;
    paper_claim = claim;
    run;
    cache;
    warm;
  }

let all =
  [
    experiment ~id:"table1" ~title:"Reference platforms"
      ~claim:"Four platforms; the Core 2 is under-clocked to match the TRIPS memory ratio"
      ~warm:[] Perf_figs.table1;
    experiment ~id:"fig3" ~title:"TRIPS block size and composition"
      ~claim:
        "Compiled blocks average tens of instructions (paper: ~64 mean, 20-128 range); \
         moves ~20%; heavy predication benchmarks carry many mispredicated instructions"
      ~warm:(warm_edge_figs ()) Isa_figs.fig3;
    experiment ~id:"fig4" ~title:"Fetched instructions vs PowerPC"
      ~claim:
        "Useful instruction counts comparable to the RISC; total fetched 2-6x due to \
         predication, moves and speculation"
      ~warm:(warm_edge_figs () @ warm_risc_all ()) Isa_figs.fig4;
    experiment ~id:"fig5" ~title:"Storage accesses vs PowerPC"
      ~claim:
        "About half the memory accesses of the RISC (as few as 15%); register accesses \
         10-20%; direct operand traffic replaces the rest"
      ~warm:(warm_edge_figs () @ warm_risc_all ()) Isa_figs.fig5;
    experiment ~id:"codesize" ~title:"Dynamic code size (4.4)"
      ~claim:"~6x PowerPC raw, ~4x with block compression"
      ~warm:
        (let benches = simple @ spec () in
         List.map (fun b () -> Isa_figs.warm_codesize b) benches
         @ List.map w_risc benches)
      Isa_figs.codesize;
    experiment ~id:"fig6" ~title:"Instructions in flight"
      ~claim:
        "Compiled code averages ~450 instructions in the window, hand-optimized ~630 \
         (peaks near 900/1000); far above conventional 64-80 entry windows"
      ~warm:(warm_trips_main ()) Micro_figs.fig6;
    experiment ~id:"fig7" ~title:"Next-block prediction breakdown"
      ~claim:
        "The block predictor makes far fewer predictions than a per-branch predictor \
         (~70% fewer on SPEC INT); hyperblocks cut MPKI (paper: 14.9/14.8/8.5/6.9 INT, \
         0.9/1.3/1.1/0.8 FP for A/B/H/I)"
      ~warm:(List.map (fun b () -> Micro_figs.warm_fig7 b) (spec ()))
      Micro_figs.fig7;
    experiment ~id:"fig8" ~title:"Memory bandwidth (hand vadd)"
      ~claim:
        "Hand-placed vadd approaches the four-bank L1 peak (paper: 96.5% of 10.9 GB/s) \
         and most of the L2 bandwidth"
      ~warm:[ w_trips Platforms.H (Registry.find "vadd") ]
      Micro_figs.fig8;
    experiment ~id:"fig8opn" ~title:"OPN traffic profile"
      ~claim:
        "ET-ET traffic dominates; roughly half of operands bypass locally (0 hops); \
         average ~0.9-1.9 hops; vadd skews to ET-DT, matrix to ET-RT"
      ~warm:
        ([ w_trips Platforms.H (Registry.find "vadd");
           w_trips Platforms.H (Registry.find "matrix");
           w_trips Platforms.C (Registry.find "gcc") ]
        @ only_c w_trips (eembc ()))
      Micro_figs.fig8_opn;
    experiment ~id:"fig9" ~title:"Sustained IPC"
      ~claim:
        "Parallel kernels reach 6-10 IPC, serial ones (routelookup, rspeed) stay low; \
         hand code ~50% higher IPC than compiled; SPEC lower than simple benchmarks"
      ~warm:(warm_trips_main ()) Perf_figs.fig9;
    experiment ~id:"fig10" ~title:"Ideal EDGE machine limit study"
      ~claim:
        "The 1K-window ideal machine outperforms the hardware by ~2.5x; removing \
         dispatch cost adds ~5x on the ideal machine; a 128K window exposes 50+ IPC \
         on many SPEC codes"
      ~warm:
        (let per q b =
           [
             w_trips q b;
             w_ideal Ideal.trips_window q b;
             w_ideal Ideal.zero_dispatch q b;
             w_ideal Ideal.huge_window q b;
           ]
         in
         List.concat_map (fun b -> per Platforms.C b @ per Platforms.H b) simple
         @ List.concat_map (per Platforms.C) (spec ()))
      Perf_figs.fig10;
    experiment ~id:"fig11" ~title:"Simple benchmark speedups vs Core 2"
      ~claim:
        "TRIPS compiled ~1.5x the Core 2-gcc model on average; hand-optimized ~3x and \
         always faster; sequential codes (rspeed, routelookup) show the least gain"
      ~warm:(List.concat_map warm_speedup simple)
      Perf_figs.fig11;
    experiment ~id:"fig12" ~title:"SPEC speedups vs Core 2"
      ~claim:
        "TRIPS compiled SPEC INT is roughly half the Core 2 model; SPEC FP is \
         comparable to Core 2-gcc; the Core 2 beats the P3/P4 models"
      ~warm:(List.concat_map warm_speedup (spec () @ eembc ()))
      Perf_figs.fig12;
    experiment ~id:"table3" ~title:"SPEC performance-counter events"
      ~claim:
        "Call/return mispredictions and I-cache misses hurt crafty/perlbmk/vortex-like \
         codes; load flushes are rare (<1 per 1000); regular FP codes keep hundreds of \
         useful instructions in flight"
      ~warm:
        (List.concat_map
           (fun b -> [ w_trips Platforms.C b; w_super Ooo.core2 false b ])
           (spec ()))
      Perf_figs.table3;
    experiment ~id:"flops" ~title:"Matrix-multiply FLOPS per cycle"
      ~claim:"TRIPS sustains more FPC than the best Core 2 figure (paper: 5.20 vs 3.58)"
      ~warm:
        (let m = Registry.find "matrix" in
         [
           w_trips Platforms.H m; w_super Ooo.core2 true m;
           w_super Ooo.pentium4 true m; w_super Ooo.pentium3 true m;
         ])
      Perf_figs.flops;
    experiment ~id:"timing" ~title:"Static timing analyzer cross-validation"
      ~claim:
        "The static critical-path model predicts whole-program cycles from one \
         functional execution; predictions correlate with the cycle-level \
         simulator (Pearson >= 0.9) and stay within 25% MAPE, tracking from \
         below (no contention, no cache misses)"
      ~warm:
        (List.concat_map
           (fun (b : Registry.bench) ->
             [ w_trips Platforms.C b;
               (fun () -> ignore (Timing_xv.predict Platforms.C b)) ])
           Registry.all)
      Timing_xv.crossval;
    experiment ~id:"sampling" ~title:"Sampled simulation accuracy"
      ~claim:
        "Systematic sampling of the detailed timing model (exact execution, \
         detail-warm/measure/fast-forward periods) estimates whole-run cycles \
         with sub-percent mean error; the true count falls inside the \
         reported 95% confidence interval on >= 50 of the 55 workloads"
      ~warm:
        (List.concat_map
           (fun (b : Registry.bench) ->
             [ w_trips Platforms.C b;
               (fun () -> ignore (Sampling_xv.estimate Platforms.C b)) ])
           Registry.all)
      Sampling_xv.crossval;
    experiment ~id:"transval" ~title:"Translation validation sweep"
      ~claim:
        "Every compiler pass — optimization, block splitting, hyperblock \
         formation, register allocation, dataflow conversion, scheduling, \
         linking — plus the RISC backend preserves TIR semantics on every \
         registered workload: the symbolic validator proves all blocks \
         equivalent with zero refutations"
      ~warm:
        (List.concat_map
           (fun (b : Registry.bench) ->
             List.map
               (fun tag () -> ignore (Transval_xv.validate_edge tag b))
               Trips_workloads.Preset.all
             @ [ (fun () -> ignore (Transval_xv.validate_risc b)) ])
           Registry.all)
      Transval_xv.crossval;
    experiment ~id:"absint" ~title:"Global abstract interpretation payoff"
      ~claim:
        "A whole-program abstract interpretation (value ranges, known \
         bits, global alias partition) discharges global optimizations \
         the local optimizer cannot see — constant/branch folding, \
         redundant-load and dead-store elimination, LSID-ordering \
         relaxation — with every applied fact re-derived by the \
         validator; hits are nonzero and the simple-suite cycle deltas \
         are never regressions"
      ~warm:(Absint_xv.warm ()) Absint_xv.crossval;
    experiment ~cache:false ~id:"fuzz"
      ~title:"Differential fuzzing sweep"
      ~claim:
        "Seeded random TIR programs agree across the AST interpreter, all \
         four compilation presets (verified, validated, lint-clean, with \
         static timing a lower bound on simulated cycles), the CFG \
         interpreter and the RISC backend: zero divergences"
      ~warm:(Fuzz_xv.warm ()) Fuzz_xv.crossval;
  ]

let find id = List.find (fun e -> e.id = id) all
let find_opt id = List.find_opt (fun e -> e.id = id) all

let to_job e =
  let cache_key = if e.cache then Some (cache_key_of e.id) else None in
  Trips_engine.Engine.job ~id:e.id ?cache_key ~warm:e.warm e.run

let meta e =
  { Trips_engine.Artifacts.id = e.id; title = e.title; note = e.paper_claim }
