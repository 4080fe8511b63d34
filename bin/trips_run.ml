(* Command-line driver for the TRIPS reproduction.

     trips_run --all --jobs 4 --out _results          -- engine sweep
     trips_run --id table1 --id fig9 --format json    -- selected experiments
     trips_run --all --cache-dir _results/cache       -- cached re-run
     trips_run list                         -- registered benchmarks
     trips_run run fft --preset H --sim cycle
     trips_run exp fig9                     -- one table/figure
     trips_run disasm conv --preset C       -- EDGE block listing *)

open Cmdliner
module Registry = Trips_workloads.Registry
module Image = Trips_tir.Image
module Ast = Trips_tir.Ast
module Ty = Trips_tir.Ty
module Exec = Trips_edge.Exec
module Core = Trips_sim.Core
module Sampled = Trips_sim.Sampled
open Trips_harness

let quality_of = function
  | "C" | "c" -> Platforms.C
  | "H" | "h" -> Platforms.H
  | q -> invalid_arg ("unknown preset " ^ q ^ " (use C or H)")

(* -- list ------------------------------------------------------------ *)

let list_cmd =
  let doc = "List the registered benchmarks." in
  let run () =
    let t =
      Trips_util.Table.create
        [ ("name", Trips_util.Table.Left); ("suite", Trips_util.Table.Left);
          ("simple", Trips_util.Table.Left); ("description", Trips_util.Table.Left) ]
    in
    List.iter
      (fun (b : Registry.bench) ->
        Trips_util.Table.add_row t
          [ b.Registry.name; Registry.suite_name b.Registry.suite;
            (if b.Registry.simple then "yes" else "");
            b.Registry.description ])
      Registry.all;
    Trips_util.Table.print t
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* -- run -------------------------------------------------------------- *)

let bench_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH")

let preset_arg =
  Arg.(value & opt string "C" & info [ "preset" ] ~docv:"C|H" ~doc:"Code quality.")

type sim =
  | Functional
  | Cycle
  | Sampled_sim
  | Ideal
  | Risc
  | Ooo of Trips_superscalar.Ooo.config

let sims =
  [ ("functional", Functional); ("cycle", Cycle); ("sampled", Sampled_sim);
    ("ideal", Ideal); ("risc", Risc);
    ("core2", Ooo Trips_superscalar.Ooo.core2);
    ("p4", Ooo Trips_superscalar.Ooo.pentium4);
    ("p3", Ooo Trips_superscalar.Ooo.pentium3) ]

let sim_arg =
  Arg.(
    value
    & opt (enum sims) Cycle
    & info [ "sim" ] ~docv:"SIM"
        ~doc:("Modeled platform: " ^ Arg.doc_alts_enum sims ^ "."))

let run_bench name preset sim =
  let b = Registry.find name in
  let q = quality_of preset in
  let golden, _ = Registry.golden b in
  let show_ret v =
    Printf.printf "result: %s (golden: %s)\n"
      (match v with Some v -> Ty.value_to_string v | None -> "-")
      (match golden with Some v -> Ty.value_to_string v | None -> "-")
  in
  match sim with
  | Functional ->
    let s = Platforms.edge_stats q b in
    show_ret golden;
    Printf.printf "blocks: %d  fetched: %d  executed: %d  useful: %d  moves: %d\n"
      s.Exec.blocks s.Exec.fetched s.Exec.executed s.Exec.useful s.Exec.k_move;
    Printf.printf "avg block size: %.1f\n"
      (Trips_util.Stats.ratio s.Exec.fetched s.Exec.blocks)
  | Cycle ->
    let r = Platforms.trips q b in
    show_ret r.Core.ret;
    Printf.printf
      "cycles: %d  IPC: %.2f (useful %.2f)  window: %.0f  avg hops: %.2f\n"
      r.Core.timing.Core.cycles (Core.ipc r) (Core.useful_ipc r) (Core.avg_window r)
      r.Core.opn_average_hops;
    Printf.printf
      "branch mispredicts: %d  call/ret: %d  I$ misses: %d  D$ misses: %d  load flushes: %d\n"
      r.Core.timing.Core.branch_mispredicts r.Core.timing.Core.callret_mispredicts
      r.Core.timing.Core.icache_misses r.Core.timing.Core.dcache_misses
      r.Core.timing.Core.load_flushes
  | Sampled_sim ->
    let prog = Platforms.edge_program q b in
    let image = Image.build b.Registry.program.Ast.globals in
    let r, est = Sampled.run prog image ~entry:"main" ~args:[] in
    show_ret r.Core.ret;
    if est.Sampled.es_full then
      Printf.printf "cycles: %.0f (exact: run too short to sample)\n"
        est.Sampled.es_cycles
    else
      Printf.printf
        "cycles: %.0f +/- %.0f (95%% CI)  intervals: %d  measured %d of %d \
         blocks  cpb %.2f +/- %.3f\n"
        est.Sampled.es_cycles est.Sampled.es_ci95 est.Sampled.es_intervals
        est.Sampled.es_measured_blocks est.Sampled.es_total_blocks
        est.Sampled.es_cpb_mean est.Sampled.es_cpb_stddev
  | Ideal ->
    let r = Platforms.ideal Trips_limit.Ideal.trips_window ~tag:"1k" q b in
    show_ret r.Trips_limit.Ideal.ret;
    Printf.printf "cycles: %d  IPC: %.2f\n" r.Trips_limit.Ideal.cycles
      (Trips_limit.Ideal.ipc r)
  | Risc ->
    let s = Platforms.risc b in
    Printf.printf
      "executed: %d  loads: %d  stores: %d  branches: %d  reg reads: %d  reg writes: %d\n"
      s.Trips_risc.Exec.executed s.Trips_risc.Exec.loads s.Trips_risc.Exec.stores
      s.Trips_risc.Exec.branches s.Trips_risc.Exec.reg_reads s.Trips_risc.Exec.reg_writes
  | Ooo cfg ->
    let r = Platforms.super cfg ~icc:false b in
    Printf.printf "%s cycles: %d  IPC: %.2f  branch mispredicts: %d\n"
      cfg.Trips_superscalar.Ooo.name r.Trips_superscalar.Ooo.stats.Trips_superscalar.Ooo.cycles
      (Trips_superscalar.Ooo.ipc r)
      r.Trips_superscalar.Ooo.stats.Trips_superscalar.Ooo.branch_mispredicts

let run_cmd =
  let doc = "Run one benchmark on one modeled platform." in
  let main name preset sim =
    try
      run_bench name preset sim;
      `Ok ()
    with
    | Invalid_argument msg | Sys_error msg | Failure msg -> `Error (false, msg)
    | Not_found -> `Error (false, "unknown benchmark (see `trips_run list`)")
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(ret (const main $ bench_arg $ preset_arg $ sim_arg))

(* -- exp -------------------------------------------------------------- *)

let exp_cmd =
  let doc = "Regenerate one of the paper's tables/figures (see `bench/main.exe`)." in
  let id_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"ID") in
  let run id =
    let e = Experiments.find id in
    Printf.printf "%s — paper: %s\n\n" e.Experiments.title e.Experiments.paper_claim;
    Trips_util.Table.print (e.Experiments.run ())
  in
  Cmd.v (Cmd.info "exp" ~doc) Term.(const run $ id_arg)

(* -- disasm ----------------------------------------------------------- *)

let disasm_cmd =
  let doc = "Print the compiled EDGE blocks of a benchmark." in
  let run name preset =
    let b = Registry.find name in
    let prog = Platforms.edge_program (quality_of preset) b in
    Format.printf "%a@." Trips_edge.Block.pp_program prog
  in
  Cmd.v (Cmd.info "disasm" ~doc) Term.(const run $ bench_arg $ preset_arg)

(* -- lint ------------------------------------------------------------- *)

module Analyzer = Trips_analysis.Analyzer
module Diag = Trips_analysis.Diag
module Driver = Trips_compiler.Driver
module Json = Trips_util.Json

let lint_preset_of = function
  | "O0" | "o0" -> Driver.o0
  | "C" | "c" | "compiled" -> Driver.compiled
  | "H" | "h" | "hand" -> Driver.hand
  | "BB" | "bb" | "basic-blocks" -> Driver.basic_blocks
  | q -> invalid_arg ("unknown preset " ^ q ^ " (use O0, C, H or basic-blocks)")

let lint_program (preset : Driver.preset) (b : Registry.bench) :
    Trips_edge.Block.program option * Diag.t list =
  (* H lints what the experiments execute: the hand-written EDGE program
     when the benchmark ships one *)
  match
    match (preset.Driver.pname, b.Registry.hand_edge) with
    | "hand", Some prog -> Ok prog
    | _ -> ( try Ok (Driver.compile preset b.Registry.program) with e -> Error e)
  with
  | Ok prog -> (Some prog, Analyzer.analyze_program prog)
  | Error e ->
    ( None,
      [
        Diag.make ~pass:"driver" ~fname:b.Registry.name "compile-fail"
          (Printf.sprintf "compilation failed: %s" (Printexc.to_string e));
      ] )

(* Shared exit policy for the analysis subcommands: error-level findings
   always fail the run; [--strict] also fails on warnings.  Used with
   [--out] so CI can both archive the JSON report and gate on it. *)
let strict_exit ~what ~strict ds =
  if Diag.failed ~strict ds then
    `Error
      ( false,
        Printf.sprintf "%s failed%s: %s" what
          (if strict then " (strict)" else "")
          (Analyzer.summary ds) )
  else `Ok ()

let lint_main benches all presets format strict out =
  try
    let benches =
      if all || benches = [] then Registry.all
      else List.map Registry.find benches
    in
    let presets = (if presets = [] then [ "C"; "H" ] else presets) in
    let presets = List.map (fun p -> (p, lint_preset_of p)) presets in
    let results =
      List.concat_map
        (fun (b : Registry.bench) ->
          List.map
            (fun (ptag, preset) ->
              let _, ds = lint_program preset b in
              (b.Registry.name, ptag, ds))
            presets)
        benches
    in
    let all_ds = List.concat_map (fun (_, _, ds) -> ds) results in
    let dirty =
      List.filter (fun (_, _, ds) -> ds <> []) results
    in
    let report_json =
      Json.Obj
        [
          ( "programs",
            Json.List
              (List.map
                 (fun (name, ptag, ds) ->
                   Json.Obj
                     [
                       ("bench", Json.Str name);
                       ("preset", Json.Str ptag);
                       ("findings", Diag.list_to_json ds);
                     ])
                 results) );
          ( "summary",
            Json.Obj
              [
                ("programs", Json.Int (List.length results));
                ("errors", Json.Int (Diag.errors all_ds));
                ("warnings", Json.Int (Diag.warnings all_ds));
                ("strict", Json.Bool strict);
              ] );
        ]
    in
    (match format with
    | "txt" ->
      List.iter
        (fun (name, ptag, ds) ->
          Printf.printf "%s [%s]: %s\n" name ptag (Analyzer.summary ds);
          print_string (Diag.render_text ds))
        dirty;
      Printf.printf "lint: %d program(s) (%d benchmark(s) x %d preset(s)): %s\n"
        (List.length results) (List.length benches) (List.length presets)
        (Analyzer.summary all_ds)
    | "json" -> print_string (Json.to_string report_json)
    | f -> invalid_arg ("unknown format " ^ f ^ " (txt|json)"));
    (match out with
    | Some file ->
      let oc = open_out file in
      output_string oc (Json.to_string report_json);
      close_out oc;
      Printf.eprintf "lint report: %s\n" file
    | None -> ());
    strict_exit ~what:"lint" ~strict all_ds
  with
  | Invalid_argument msg | Sys_error msg | Failure msg -> `Error (false, msg)
  | Not_found -> `Error (false, "unknown benchmark (see `trips_run list`)")

let lint_cmd =
  let doc =
    "Statically analyze the compiled EDGE blocks of registered benchmarks."
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Compiles every selected benchmark under every selected preset and \
         runs the block/program static analyzer: predicate-path checks \
         (exactly one exit, store completion, write delivery, port \
         conflicts, null-token flow), dataflow deadlock and dead-code \
         detection, and cross-block liveness (use-before-def, dead \
         writes, branch-target resolution).";
    ]
  in
  let benches =
    Arg.(
      value
      & opt_all string []
      & info [ "bench" ] ~docv:"NAME" ~doc:"Benchmark to lint (repeatable).")
  in
  let all =
    Arg.(value & flag & info [ "all" ] ~doc:"Lint every registered benchmark.")
  in
  let presets =
    Arg.(
      value
      & opt_all string []
      & info [ "preset" ] ~docv:"O0|C|H|BB"
          ~doc:"Code-quality preset (repeatable; default C and H).")
  in
  let format =
    Arg.(
      value & opt string "txt"
      & info [ "format" ] ~docv:"txt|json" ~doc:"Report rendering.")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ] ~doc:"Fail on warnings as well as errors.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Also write the JSON report to $(docv).")
  in
  Cmd.v
    (Cmd.info "lint" ~doc ~man)
    Term.(
      ret (const lint_main $ benches $ all $ presets $ format $ strict $ out))

(* -- absint ----------------------------------------------------------- *)

let absint_refutations ptag (b : Registry.bench) =
  (* Full translation validation (memoized alongside the transval sweep);
     with the global passes on, every applied fact and LSID relaxation is
     re-derived and replayed by the validator. *)
  let reports =
    Platforms.memo
      (Printf.sprintf "transval/%s/%s" ptag b.Registry.name)
      (fun () -> fst (Driver.validate (Absint_xv.preset_of ptag) b.Registry.program))
  in
  let s = Trips_analysis.Transval.summarize reports in
  s.Trips_analysis.Transval.n_refuted

let absint_main benches all presets validate format strict out =
  try
    let benches =
      if all || benches = [] then Registry.all
      else List.map Registry.find benches
    in
    let presets = if presets = [] then [ "C"; "H" ] else presets in
    List.iter (fun p -> ignore (Absint_xv.preset_of p)) presets;
    let results =
      List.concat_map
        (fun (b : Registry.bench) ->
          List.map
            (fun ptag ->
              let r = Absint_xv.row ptag b in
              let ds = Absint_xv.diags_of ptag b in
              let refuted =
                if validate then Some (absint_refutations ptag b) else None
              in
              (b, ptag, r, ds, refuted))
            presets)
        benches
    in
    let all_ds = List.concat_map (fun (_, _, _, ds, _) -> ds) results in
    let refute_ds =
      List.filter_map
        (fun ((b : Registry.bench), ptag, _, _, refuted) ->
          match refuted with
          | Some n when n > 0 ->
            Some
              (Diag.make ~pass:"transval" ~fname:b.Registry.name "refuted"
                 (Printf.sprintf "%s [%s]: %d refuted validation report(s)"
                    b.Registry.name ptag n))
          | _ -> None)
        results
    in
    let total_hits =
      List.fold_left
        (fun acc (_, _, (r : Absint_xv.row), _, _) ->
          acc + Absint_xv.total_hits r.Absint_xv.a_gs)
        0 results
    in
    let total_refuted =
      List.fold_left
        (fun acc (_, _, _, _, refuted) ->
          acc + Option.value refuted ~default:0)
        0 results
    in
    let report_json =
      Json.Obj
        [
          ( "programs",
            Json.List
              (List.map
                 (fun ((b : Registry.bench), ptag, (r : Absint_xv.row), ds, refuted) ->
                   let s = r.Absint_xv.a_stats in
                   let gs = r.Absint_xv.a_gs in
                   Json.Obj
                     ([
                        ("bench", Json.Str b.Registry.name);
                        ("preset", Json.Str ptag);
                        ( "facts",
                          Json.Obj
                            [
                              ("const_defs", Json.Int s.Trips_analysis.Absint.s_const_defs);
                              ("dead_branches", Json.Int s.Trips_analysis.Absint.s_dead_branches);
                              ("sep_pairs", Json.Int s.Trips_analysis.Absint.s_sep_pairs);
                              ("widenings", Json.Int s.Trips_analysis.Absint.s_widenings);
                            ] );
                        ( "hits",
                          Json.Obj
                            [
                              ("consts", Json.Int gs.Driver.gs_consts);
                              ("branches", Json.Int gs.Driver.gs_branches);
                              ("rles", Json.Int gs.Driver.gs_rles);
                              ("dses", Json.Int gs.Driver.gs_dses);
                              ("relaxed", Json.Int gs.Driver.gs_relaxed);
                              ("total", Json.Int (Absint_xv.total_hits gs));
                            ] );
                        ("findings", Diag.list_to_json ds);
                      ]
                     @
                     match refuted with
                     | Some n -> [ ("refuted", Json.Int n) ]
                     | None -> []))
                 results) );
          ( "summary",
            Json.Obj
              [
                ("programs", Json.Int (List.length results));
                ("total_hits", Json.Int total_hits);
                ("errors", Json.Int (Diag.errors all_ds));
                ("warnings", Json.Int (Diag.warnings all_ds));
                ("validated", Json.Bool validate);
                ("refuted", Json.Int total_refuted);
                ("strict", Json.Bool strict);
              ] );
        ]
    in
    (match format with
    | "txt" ->
      List.iter
        (fun ((b : Registry.bench), ptag, (r : Absint_xv.row), ds, refuted) ->
          let s = r.Absint_xv.a_stats in
          let gs = r.Absint_xv.a_gs in
          Printf.printf
            "%s [%s]: %d const def(s), %d dead branch(es), %d sep pair(s); \
             hits %d (%d/%d/%d/%d/%d)%s\n"
            b.Registry.name ptag s.Trips_analysis.Absint.s_const_defs
            s.Trips_analysis.Absint.s_dead_branches
            s.Trips_analysis.Absint.s_sep_pairs
            (Absint_xv.total_hits gs) gs.Driver.gs_consts gs.Driver.gs_branches
            gs.Driver.gs_rles gs.Driver.gs_dses gs.Driver.gs_relaxed
            (match refuted with
            | Some n -> Printf.sprintf "; refuted %d" n
            | None -> "");
          print_string (Diag.render_text ds))
        results;
      Printf.printf "absint: %d program(s): %d global hit(s)%s, %s\n"
        (List.length results) total_hits
        (if validate then Printf.sprintf ", %d refuted" total_refuted else "")
        (Analyzer.summary all_ds)
    | "json" -> print_string (Json.to_string report_json)
    | f -> invalid_arg ("unknown format " ^ f ^ " (txt|json)"));
    (match out with
    | Some file ->
      let oc = open_out file in
      output_string oc (Json.to_string report_json);
      close_out oc;
      Printf.eprintf "absint report: %s\n" file
    | None -> ());
    strict_exit ~what:"absint" ~strict (refute_ds @ all_ds)
  with
  | Invalid_argument msg | Sys_error msg | Failure msg -> `Error (false, msg)
  | Not_found -> `Error (false, "unknown benchmark (see `trips_run list`)")

let absint_cmd =
  let doc =
    "Run the global abstract interpretation and report derived facts, \
     discharged optimizations, and findings."
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the whole-program abstract interpretation (value ranges, \
         known bits, nullness, global alias partition) over each selected \
         benchmark's optimized TIR, reports the facts it derives and the \
         global-optimization hits the driver applied (constant/branch \
         folding, redundant-load and dead-store elimination, LSID-ordering \
         relaxation), plus its diagnostics: provably dead branches, \
         guaranteed division traps, out-of-range shifts, and the \
         must-not-alias pair count.  With $(b,--validate) the full \
         translation validator additionally re-derives and replays every \
         applied fact, and any refutation fails the run.";
    ]
  in
  let benches =
    Arg.(
      value
      & opt_all string []
      & info [ "bench" ] ~docv:"NAME" ~doc:"Benchmark to analyze (repeatable).")
  in
  let all =
    Arg.(
      value & flag & info [ "all" ] ~doc:"Analyze every registered benchmark.")
  in
  let presets =
    Arg.(
      value
      & opt_all string []
      & info [ "preset" ] ~docv:"O0|C|H|BB"
          ~doc:"Code-quality preset (repeatable; default C and H).")
  in
  let validate =
    Arg.(
      value & flag
      & info [ "validate" ]
          ~doc:
            "Also run the translation validator and fail on any refutation.")
  in
  let format =
    Arg.(
      value & opt string "txt"
      & info [ "format" ] ~docv:"txt|json" ~doc:"Report rendering.")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ] ~doc:"Fail on warnings as well as errors.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Also write the JSON report to $(docv).")
  in
  Cmd.v
    (Cmd.info "absint" ~doc ~man)
    Term.(
      ret
        (const absint_main $ benches $ all $ presets $ validate $ format
       $ strict $ out))

(* -- timing ----------------------------------------------------------- *)

module Timing = Trips_analysis.Timing

let timing_main benches all simple preset format top xval strict out =
  try
    let q = quality_of preset in
    let benches =
      if all then Registry.all
      else if simple then Registry.simple_suite
      else if benches = [] then Registry.simple_suite
      else List.map Registry.find benches
    in
    let model = Timing_xv.model_of Core.prototype in
    let per_bench =
      List.map
        (fun (b : Registry.bench) ->
          let p = Timing_xv.predict q b in
          let measured =
            if xval then
              Some (Platforms.trips q b).Core.timing.Core.cycles
            else None
          in
          (b, p, measured))
        benches
    in
    let top_blocks (p : Timing_xv.prediction) =
      let items =
        Hashtbl.fold
          (fun label (s : Timing.summary) acc ->
            let count =
              Option.value ~default:0 (Hashtbl.find_opt p.Timing_xv.pr_counts label)
            in
            (* rank by dynamic contribution; never-executed blocks last *)
            ((count * Timing.predicted_block_cost model s, s.Timing.s_crit), label, count, s)
            :: acc)
          p.Timing_xv.pr_summaries []
      in
      let sorted =
        List.sort (fun (w1, _, _, _) (w2, _, _, _) -> compare w2 w1) items
      in
      List.filteri (fun i _ -> i < top) sorted
      |> List.map (fun (_, label, count, s) -> (label, count, s))
    in
    let block_json (label, count, (s : Timing.summary)) =
      let bk = s.Timing.s_breakdown in
      Json.Obj
        [
          ("label", Json.Str label);
          ("instances", Json.Int count);
          ("insts", Json.Int s.Timing.s_n);
          ("crit", Json.Int s.Timing.s_crit);
          ( "breakdown",
            Json.Obj
              [
                ("compute", Json.Int bk.Timing.bk_compute);
                ("route", Json.Int bk.Timing.bk_route);
                ("memory", Json.Int bk.Timing.bk_memory);
                ("overhead", Json.Int bk.Timing.bk_overhead);
              ] );
          ("pred_depth", Json.Int s.Timing.s_pred_depth);
          ("link_max", Json.Int s.Timing.s_link_max);
          ("contention_est", Json.Int s.Timing.s_contention_est);
        ]
    in
    let err_pct pred = function
      | Some m when m <> 0 ->
        Some (100. *. float_of_int (pred - m) /. float_of_int m)
      | _ -> None
    in
    let report_json =
      let programs =
        List.map
          (fun ((b : Registry.bench), (p : Timing_xv.prediction), measured) ->
            Json.Obj
              ([
                 ("bench", Json.Str b.Registry.name);
                 ("preset", Json.Str (Platforms.quality_tag q));
                 ("predicted_cycles", Json.Int p.Timing_xv.pr_cycles);
               ]
              @ (match measured with
                | Some m ->
                  [ ("measured_cycles", Json.Int m) ]
                  @
                  (match err_pct p.Timing_xv.pr_cycles measured with
                  | Some e -> [ ("error_pct", Json.Float e) ]
                  | None -> [])
                | None -> [])
              @ [
                  ("blocks", Json.Int p.Timing_xv.pr_blocks);
                  ("mispredicts", Json.Int p.Timing_xv.pr_mispredicts);
                  ("top_blocks", Json.List (List.map block_json (top_blocks p)));
                  ("findings", Diag.list_to_json p.Timing_xv.pr_diags);
                ]))
          per_bench
      in
      let all_ds =
        List.concat_map (fun (_, p, _) -> p.Timing_xv.pr_diags) per_bench
      in
      let xv_summary =
        if xval then begin
          let pairs =
            List.filter_map
              (fun (_, (p : Timing_xv.prediction), m) ->
                Option.map
                  (fun m -> (float_of_int p.Timing_xv.pr_cycles, float_of_int m))
                  m)
              per_bench
          in
          let predicted = List.map fst pairs and actual = List.map snd pairs in
          [
            ("pearson", Json.Float (Trips_util.Stats.pearson predicted actual));
            ("mape", Json.Float (Trips_util.Stats.mape ~predicted ~actual));
          ]
        end
        else []
      in
      Json.Obj
        [
          ("programs", Json.List programs);
          ( "summary",
            Json.Obj
              ([
                 ("programs", Json.Int (List.length per_bench));
                 ("warnings", Json.Int (Diag.warnings all_ds));
               ]
              @ xv_summary) );
        ]
    in
    (match format with
    | "txt" ->
      List.iter
        (fun ((b : Registry.bench), (p : Timing_xv.prediction), measured) ->
          Printf.printf "%s [%s]: predicted %d cycles" b.Registry.name
            (Platforms.quality_tag q) p.Timing_xv.pr_cycles;
          (match measured with
          | Some m ->
            Printf.printf " (measured %d" m;
            (match err_pct p.Timing_xv.pr_cycles measured with
            | Some e -> Printf.printf ", %+.1f%%" e
            | None -> ());
            print_string ")"
          | None -> ());
          Printf.printf ", %d block instance(s), %d mispredict(s)\n"
            p.Timing_xv.pr_blocks p.Timing_xv.pr_mispredicts;
          let t =
            Trips_util.Table.create
              [
                ("block", Trips_util.Table.Left);
                ("instances", Trips_util.Table.Right);
                ("insts", Trips_util.Table.Right);
                ("crit", Trips_util.Table.Right);
                ("compute", Trips_util.Table.Right);
                ("route", Trips_util.Table.Right);
                ("memory", Trips_util.Table.Right);
                ("overhead", Trips_util.Table.Right);
                ("pred", Trips_util.Table.Right);
                ("link", Trips_util.Table.Right);
              ]
          in
          List.iter
            (fun (label, count, (s : Timing.summary)) ->
              let bk = s.Timing.s_breakdown in
              Trips_util.Table.add_row t
                [
                  label;
                  string_of_int count;
                  string_of_int s.Timing.s_n;
                  string_of_int s.Timing.s_crit;
                  string_of_int bk.Timing.bk_compute;
                  string_of_int bk.Timing.bk_route;
                  string_of_int bk.Timing.bk_memory;
                  string_of_int bk.Timing.bk_overhead;
                  string_of_int s.Timing.s_pred_depth;
                  string_of_int s.Timing.s_link_max;
                ])
            (top_blocks p);
          Trips_util.Table.print t;
          print_string (Diag.render_text p.Timing_xv.pr_diags);
          print_newline ())
        per_bench;
      if xval then begin
        let pairs =
          List.filter_map
            (fun (_, (p : Timing_xv.prediction), m) ->
              Option.map
                (fun m -> (float_of_int p.Timing_xv.pr_cycles, float_of_int m))
                m)
            per_bench
        in
        let predicted = List.map fst pairs and actual = List.map snd pairs in
        Printf.printf "cross-validation: %d program(s), pearson %.3f, mape %.1f%%\n"
          (List.length pairs)
          (Trips_util.Stats.pearson predicted actual)
          (Trips_util.Stats.mape ~predicted ~actual)
      end
    | "json" -> print_string (Json.to_string report_json)
    | f -> invalid_arg ("unknown format " ^ f ^ " (txt|json)"));
    (match out with
    | Some file ->
      let oc = open_out file in
      output_string oc (Json.to_string report_json);
      close_out oc;
      Printf.eprintf "timing report: %s\n" file
    | None -> ());
    strict_exit ~what:"timing" ~strict
      (List.concat_map (fun (_, p, _) -> p.Timing_xv.pr_diags) per_bench)
  with
  | Invalid_argument msg | Sys_error msg | Failure msg -> `Error (false, msg)
  | Not_found -> `Error (false, "unknown benchmark (see `trips_run list`)")

let timing_cmd =
  let doc =
    "Statically predict block and program cycle counts from the schedule."
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the static critical-path timing analyzer over the compiled \
         EDGE blocks of the selected benchmarks: per-block weighted \
         critical path with a compute/route/memory/overhead breakdown, \
         placement-quality findings (long operand routes on the critical \
         path, ET hotspots, over-serialized predicate chains, register \
         round-trips), and a whole-program cycle prediction obtained by \
         composing the per-block summaries over the functional \
         execution's block trace with the next-block predictor replayed.";
      `P
        "With $(b,--xval) the cycle-level simulator also runs and the \
         report gains measured cycles, per-benchmark error and \
         Pearson/MAPE aggregates.";
    ]
  in
  let benches =
    Arg.(
      value
      & opt_all string []
      & info [ "bench" ] ~docv:"NAME" ~doc:"Benchmark to analyze (repeatable).")
  in
  let all =
    Arg.(
      value & flag & info [ "all" ] ~doc:"Analyze every registered benchmark.")
  in
  let simple =
    Arg.(
      value & flag
      & info [ "simple" ] ~doc:"Analyze the paper's Simple suite (default).")
  in
  let preset =
    Arg.(
      value & opt string "C"
      & info [ "preset" ] ~docv:"C|H" ~doc:"Code quality.")
  in
  let format =
    Arg.(
      value & opt string "txt"
      & info [ "format" ] ~docv:"txt|json" ~doc:"Report rendering.")
  in
  let top =
    Arg.(
      value & opt int 3
      & info [ "top" ] ~docv:"N"
          ~doc:"Blocks to detail per benchmark, hottest first.")
  in
  let xval =
    Arg.(
      value & flag
      & info [ "xval" ]
          ~doc:"Cross-validate: also run the cycle-level simulator.")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"Fail (non-zero exit) when placement findings are reported.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Also write the JSON report to $(docv).")
  in
  Cmd.v
    (Cmd.info "timing" ~doc ~man)
    Term.(
      ret
        (const timing_main $ benches $ all $ simple $ preset $ format $ top
        $ xval $ strict $ out))

(* -- sampling --------------------------------------------------------- *)

let sampling_main benches all preset format out =
  try
    let q = quality_of preset in
    let benches =
      if all || benches = [] then Registry.all
      else List.map Registry.find benches
    in
    let rs = Sampling_xv.rows ~quality:q benches in
    let within = Sampling_xv.within_of rs in
    let mean_err = Sampling_xv.mean_abs_error_of rs in
    let row_json (r : Sampling_xv.row) =
      Json.Obj
        [
          ("bench", Json.Str r.Sampling_xv.sx_bench);
          ("actual", Json.Int r.Sampling_xv.sx_actual);
          ("estimate", Json.Float r.Sampling_xv.sx_estimate);
          ("ci95", Json.Float r.Sampling_xv.sx_ci95);
          ("error_pct", Json.Float r.Sampling_xv.sx_error_pct);
          ("intervals", Json.Int r.Sampling_xv.sx_intervals);
          ("full", Json.Bool r.Sampling_xv.sx_full);
          ("within_ci", Json.Bool r.Sampling_xv.sx_within);
        ]
    in
    let report_json =
      Json.Obj
        [
          ("preset", Json.Str (Platforms.quality_tag q));
          ("rows", Json.List (List.map row_json rs));
          ( "summary",
            Json.Obj
              [
                ("workloads", Json.Int (List.length rs));
                ("within_ci", Json.Int within);
                ("mean_abs_error_pct", Json.Float mean_err);
              ] );
        ]
    in
    (match format with
    | "txt" ->
      Trips_util.Table.print (Sampling_xv.table_of rs);
      Printf.printf
        "sampling accuracy: %d program(s), %d within CI, mean |error| %.2f%%\n"
        (List.length rs) within mean_err
    | "json" -> print_string (Json.to_string report_json)
    | f -> invalid_arg ("unknown format " ^ f ^ " (txt|json)"));
    (match out with
    | Some file ->
      let oc = open_out file in
      output_string oc (Json.to_string report_json);
      close_out oc;
      Printf.eprintf "sampling report: %s\n" file
    | None -> ());
    `Ok ()
  with
  | Invalid_argument msg | Sys_error msg | Failure msg -> `Error (false, msg)
  | Not_found -> `Error (false, "unknown benchmark (see `trips_run list`)")

let sampling_cmd =
  let doc = "Cross-validate the sampled simulator's cycle estimates." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs every selected benchmark twice: once under the full \
         detailed cycle simulator and once under the sampled simulator \
         (exact execution, systematically sampled timing), then compares \
         the sampled estimate and its 95% confidence interval with the \
         exact cycle count.  The summary reports how many workloads fall \
         inside their own interval and the mean absolute error.";
    ]
  in
  let benches =
    Arg.(
      value
      & opt_all string []
      & info [ "bench" ] ~docv:"NAME" ~doc:"Benchmark to check (repeatable).")
  in
  let all =
    Arg.(
      value & flag
      & info [ "all" ] ~doc:"Check every registered benchmark (default).")
  in
  let preset =
    Arg.(
      value & opt string "C"
      & info [ "preset" ] ~docv:"C|H" ~doc:"Code quality.")
  in
  let format =
    Arg.(
      value & opt string "txt"
      & info [ "format" ] ~docv:"txt|json" ~doc:"Report rendering.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Also write the JSON report to $(docv).")
  in
  Cmd.v
    (Cmd.info "sampling" ~doc ~man)
    Term.(
      ret (const sampling_main $ benches $ all $ preset $ format $ out))

(* -- transval --------------------------------------------------------- *)

module Transval = Trips_analysis.Transval

let transval_main benches all presets isa format strict out =
  try
    let full = Sys.getenv_opt "TRIPS_TRANSVAL_FULL" = Some "1" in
    let benches =
      if all || benches = [] then Registry.all else List.map Registry.find benches
    in
    let edge_presets =
      if full then Transval_xv.all_presets
      else
        List.concat_map
          (fun p ->
            match p with
            | "fast" -> [ Transval_xv.O0; Transval_xv.C ]
            | p -> (
              match Transval_xv.tag_of_string p with
              | Some t -> [ t ]
              | None ->
                invalid_arg
                  ("unknown preset " ^ p ^ " (use O0, C, H, BB or fast)")))
          (if presets = [] then [ "fast" ] else presets)
    in
    let edge, risc =
      if full then (true, true)
      else
        match isa with
        | "edge" -> (true, false)
        | "risc" -> (false, true)
        | "both" -> (true, true)
        | s -> invalid_arg ("unknown isa " ^ s ^ " (edge|risc|both)")
    in
    let cells =
      Transval_xv.sweep
        ~presets:(if edge then edge_presets else [])
        ~risc benches
    in
    let cell_json (c : Transval_xv.cell) =
      let s = c.Transval_xv.c_summary in
      Json.Obj
        [
          ("bench", Json.Str c.Transval_xv.c_bench);
          ("config", Json.Str c.Transval_xv.c_config);
          ("proved", Json.Int s.Transval.n_proved);
          ("concrete", Json.Int s.Transval.n_concrete);
          ("refuted", Json.Int s.Transval.n_refuted);
          ( "findings",
            Diag.list_to_json (Transval.report_diags c.Transval_xv.c_reports) );
        ]
    in
    let all_ds =
      List.concat_map
        (fun (c : Transval_xv.cell) ->
          Transval.report_diags c.Transval_xv.c_reports)
        cells
    in
    let totals =
      List.fold_left
        (fun (p, co, r) (c : Transval_xv.cell) ->
          let s = c.Transval_xv.c_summary in
          ( p + s.Transval.n_proved,
            co + s.Transval.n_concrete,
            r + s.Transval.n_refuted ))
        (0, 0, 0) cells
    in
    let tp, tc, tr = totals in
    let report_json =
      Json.Obj
        [
          ("programs", Json.List (List.map cell_json cells));
          ( "summary",
            Json.Obj
              [
                ("programs", Json.Int (List.length cells));
                ("proved", Json.Int tp);
                ("concrete", Json.Int tc);
                ("refuted", Json.Int tr);
                ("warnings", Json.Int (Diag.warnings all_ds));
                ("strict", Json.Bool strict);
              ] );
        ]
    in
    (match format with
    | "txt" ->
      List.iter
        (fun (c : Transval_xv.cell) ->
          let s = c.Transval_xv.c_summary in
          Printf.printf "%s [%s]: proved=%d concrete=%d refuted=%d\n"
            c.Transval_xv.c_bench c.Transval_xv.c_config s.Transval.n_proved
            s.Transval.n_concrete s.Transval.n_refuted;
          print_string
            (Diag.render_text (Transval.report_diags c.Transval_xv.c_reports)))
        cells;
      Printf.printf
        "transval: %d program(s) (%d benchmark(s)): proved=%d concrete=%d \
         refuted=%d\n"
        (List.length cells) (List.length benches) tp tc tr
    | "json" -> print_string (Json.to_string report_json)
    | f -> invalid_arg ("unknown format " ^ f ^ " (txt|json)"));
    (match out with
    | Some file ->
      let oc = open_out file in
      output_string oc (Json.to_string report_json);
      close_out oc;
      Printf.eprintf "transval report: %s\n" file
    | None -> ());
    strict_exit ~what:"transval" ~strict all_ds
  with
  | Invalid_argument msg | Sys_error msg | Failure msg -> `Error (false, msg)
  | Not_found -> `Error (false, "unknown benchmark (see `trips_run list`)")

let transval_cmd =
  let doc =
    "Symbolically validate every compiler pass against its input (translation \
     validation)."
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Recompiles the selected benchmarks with per-pass witnesses and checks \
         each pass checkpoint: TIR optimization and block splitting against the \
         lowered CFG, hyperblock formation structurally, register allocation by \
         property, dataflow conversion by symbolic execution of the EDGE block \
         against its TIR region per feasible predicate path, scheduling as \
         array identity, and linking.  With $(b,--isa) risc or both, the RISC \
         backend's emitted code ranges (and prologue) are validated the same \
         way.  Each block reports $(b,proved) (all paths syntactically equal), \
         $(b,concrete) (equal on seeded random concretizations), or \
         $(b,refuted) — a refutation names the guilty pass and first diverging \
         definition.";
      `P
        "Setting TRIPS_TRANSVAL_FULL=1 overrides the preset/isa selection with \
         the full matrix (O0, C, H, BB and both ISAs).";
    ]
  in
  let benches =
    Arg.(
      value
      & opt_all string []
      & info [ "bench" ] ~docv:"NAME" ~doc:"Benchmark to validate (repeatable).")
  in
  let all =
    Arg.(
      value & flag & info [ "all" ] ~doc:"Validate every registered benchmark.")
  in
  let presets =
    Arg.(
      value
      & opt_all string []
      & info [ "preset" ] ~docv:"O0|C|H|BB|fast"
          ~doc:
            "Code-quality preset (repeatable; $(b,fast) = O0 and C; default \
             fast).")
  in
  let isa =
    Arg.(
      value & opt string "both"
      & info [ "isa" ] ~docv:"edge|risc|both" ~doc:"Backend(s) to validate.")
  in
  let format =
    Arg.(
      value & opt string "txt"
      & info [ "format" ] ~docv:"txt|json" ~doc:"Report rendering.")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"Fail on warnings (path-limit truncations) as well as refutations.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Also write the JSON report to $(docv).")
  in
  Cmd.v
    (Cmd.info "transval" ~doc ~man)
    Term.(
      ret
        (const transval_main $ benches $ all $ presets $ isa $ format $ strict
        $ out))

(* -- simbench --------------------------------------------------------- *)

module Core_ref = Trips_sim.Core_ref

(* One sequential cycle-simulator sweep over the registered workloads.
   Compilation and image building happen outside the timed region so the
   clocks measure the selected engine alone (`Core`, `Core_ref`, or the
   `Sampled` estimator).  Both wall and
   process CPU time are recorded: the shared machines this runs on carry
   unpredictable background load, so throughput gates use the CPU-time
   ratio, which that noise cancels out of. *)
let simbench_sweep ~use_ref q benches =
  let jobs =
    List.map
      (fun (b : Registry.bench) ->
        let prog = Platforms.edge_program q b in
        (b, prog, Image.build b.Registry.program.Ast.globals))
      benches
  in
  let t0 = Unix.gettimeofday () in
  let c0 = Sys.time () in
  let dbg = Sys.getenv_opt "TRIPS_SIMBENCH_DEBUG" <> None in
  let rows =
    List.map
      (fun ((b : Registry.bench), prog, image) ->
        let w0 = Unix.gettimeofday () and a0 = Gc.allocated_bytes () in
        Fun.protect ~finally:(fun () ->
            if dbg then
              Printf.eprintf "%-24s %8.2fs %10.0f MB\n%!" b.Registry.name
                (Unix.gettimeofday () -. w0)
                ((Gc.allocated_bytes () -. a0) /. 1e6))
        @@ fun () ->
        match use_ref with
        | `Ref ->
          let r = Core_ref.run prog image ~entry:"main" ~args:[] in
          let t = r.Core_ref.timing in
          ( b.Registry.name, t.Core_ref.cycles, t.Core_ref.blocks,
            t.Core_ref.branch_mispredicts, t.Core_ref.callret_mispredicts,
            t.Core_ref.dcache_misses, t.Core_ref.load_flushes )
        | `Core ->
          let r = Core.run prog image ~entry:"main" ~args:[] in
          let t = r.Core.timing in
          ( b.Registry.name, t.Core.cycles, t.Core.blocks,
            t.Core.branch_mispredicts, t.Core.callret_mispredicts,
            t.Core.dcache_misses, t.Core.load_flushes )
        | `Sampled ->
          (* the estimate replaces cycles; the remaining stats cover the
             detailed stretches only, so the row is informational and is
             never compared against the exact engines *)
          let r, est = Sampled.run prog image ~entry:"main" ~args:[] in
          let t = r.Core.timing in
          ( b.Registry.name,
            int_of_float est.Sampled.es_cycles,
            r.Core.exec.Exec.blocks, t.Core.branch_mispredicts,
            t.Core.callret_mispredicts, t.Core.dcache_misses,
            t.Core.load_flushes ))
      jobs
  in
  let wall = Unix.gettimeofday () -. t0 in
  let cpu = Sys.time () -. c0 in
  (rows, wall, cpu)

let simbench_main preset fixture out compare_ref =
  try
    let q = quality_of preset in
    let benches = Registry.all in
    let rows, wall, cpu = simbench_sweep ~use_ref:`Core q benches in
    let blocks = List.fold_left (fun a (_, _, b, _, _, _, _) -> a + b) 0 rows in
    let bps w = if w > 0. then float_of_int blocks /. w else 0. in
    Printf.printf
      "simbench: %d workload(s) [%s], %d block instances, %.2fs wall (%.2fs \
       cpu), %.0f blocks/s\n%!"
      (List.length rows) preset blocks wall cpu (bps cpu);
    let ref_times =
      if compare_ref then begin
        let ref_rows, ref_wall, ref_cpu = simbench_sweep ~use_ref:`Ref q benches in
        if ref_rows <> rows then
          failwith "simbench: optimized and reference simulators disagree";
        Printf.printf
          "simbench: reference sweep %.2fs wall (%.2fs cpu), %.0f blocks/s — \
           speedup x%.2f (stats identical)\n%!"
          ref_wall ref_cpu (bps ref_cpu) (ref_cpu /. cpu);
        Some (ref_wall, ref_cpu)
      end
      else None
    in
    (* sampled estimator: throughput plus estimate quality *)
    let samp_rows, samp_wall, samp_cpu =
      simbench_sweep ~use_ref:`Sampled q benches
    in
    let samp_err =
      (* mean absolute estimate error vs the exact sweep, in percent *)
      let tot, n =
        List.fold_left2
          (fun (tot, n) (_, est, _, _, _, _, _) (_, cy, _, _, _, _, _) ->
            if cy > 0 then
              (tot +. (abs_float (float_of_int (est - cy)) /. float_of_int cy), n + 1)
            else (tot, n))
          (0., 0) samp_rows rows
      in
      if n = 0 then 0. else 100. *. tot /. float_of_int n
    in
    Printf.printf
      "simbench: sampled sweep %.2fs wall (%.2fs cpu), %.0f blocks/s — \
       speedup x%.2f vs plan interpreter, mean |error| %.2f%%\n%!"
      samp_wall samp_cpu (bps samp_cpu) (cpu /. samp_cpu) samp_err;
    (match fixture with
    | Some file ->
      let oc = open_out file in
      Printf.fprintf oc
        "(* Golden per-workload statistics of the seed (reference) cycle \
         simulator,\n   recorded by `trips_run simbench --preset %s --fixture \
         %s`.\n   Regenerate only if the *model* intentionally changes; the \
         optimized\n   simulator must reproduce these numbers exactly \
         (test_sim_parity.ml). *)\n\nlet preset = %S\n\n\
         (* name, cycles, blocks, branch_mispredicts, callret_mispredicts,\n   \
         dcache_misses, load_flushes *)\n\
         let per_workload = [\n"
        preset file preset;
      List.iter
        (fun (name, cy, bl, bm, cm, dm, lf) ->
          Printf.fprintf oc "  (%S, %d, %d, %d, %d, %d, %d);\n" name cy bl bm cm
            dm lf)
        rows;
      Printf.fprintf oc "]\n";
      close_out oc;
      Printf.eprintf "fixture: %s\n" file
    | None -> ());
    (match out with
    | Some file ->
      let json =
        Json.Obj
          ([
             ("preset", Json.Str preset);
             ("workloads", Json.Int (List.length rows));
             ("blocks", Json.Int blocks);
             ("wall_s", Json.Float wall);
             ("cpu_s", Json.Float cpu);
             ("blocks_per_s", Json.Float (bps cpu));
           ]
          @ (match ref_times with
            | Some (rw, rc) ->
              [
                ("ref_wall_s", Json.Float rw);
                ("ref_cpu_s", Json.Float rc);
                ("ref_blocks_per_s", Json.Float (bps rc));
                ("speedup_vs_ref", Json.Float (rc /. cpu));
              ]
            | None -> [])
          @ [
              ("sampled_wall_s", Json.Float samp_wall);
              ("sampled_cpu_s", Json.Float samp_cpu);
              ("sampled_blocks_per_s", Json.Float (bps samp_cpu));
              ("speedup_vs_plan_sampled", Json.Float (cpu /. samp_cpu));
              ("sampled_mean_abs_error_pct", Json.Float samp_err);
            ]
          @ [
              ( "per_workload",
                Json.List
                  (List.map
                     (fun (name, cy, bl, bm, cm, dm, lf) ->
                       Json.Obj
                         [
                           ("name", Json.Str name);
                           ("cycles", Json.Int cy);
                           ("blocks", Json.Int bl);
                           ("branch_mispredicts", Json.Int bm);
                           ("callret_mispredicts", Json.Int cm);
                           ("dcache_misses", Json.Int dm);
                           ("load_flushes", Json.Int lf);
                         ])
                     rows) );
            ])
      in
      let oc = open_out file in
      output_string oc (Json.to_string json);
      close_out oc;
      Printf.eprintf "simbench report: %s\n" file
    | None -> ());
    `Ok ()
  with
  | Invalid_argument msg | Sys_error msg | Failure msg -> `Error (false, msg)

let simbench_cmd =
  let doc =
    "Measure sequential cycle-simulator throughput over the full registry."
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Compiles every registered workload under the selected preset, then \
         replays them all through the cycle-level simulator, reporting \
         block instances per second.  With $(b,--compare-ref) the frozen \
         pre-optimization simulator (Core_ref) runs the same sweep and the \
         report gains a machine-independent speedup; the two simulators' \
         statistics must agree exactly or the command fails.";
    ]
  in
  let preset =
    Arg.(value & opt string "C" & info [ "preset" ] ~docv:"C|H" ~doc:"Code quality.")
  in
  let fixture =
    Arg.(
      value
      & opt (some string) None
      & info [ "fixture" ] ~docv:"FILE"
          ~doc:"Write the per-workload golden fixture as OCaml source to $(docv).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write the JSON report to $(docv).")
  in
  let compare_ref =
    Arg.(
      value & flag
      & info [ "compare-ref" ]
          ~doc:"Also sweep the frozen reference simulator and report speedup.")
  in
  Cmd.v
    (Cmd.info "simbench" ~doc ~man)
    Term.(ret (const simbench_main $ preset $ fixture $ out $ compare_ref))

(* -- serve-client: talk to a running trips_serve daemon --------------- *)

let serve_client_main host port what bench preset mode =
  let module Client = Trips_serve.Client in
  let show = function
    | Result.Error msg -> `Error (false, "request failed: " ^ msg)
    | Result.Ok (resp : Trips_serve.Http.response) ->
      print_endline resp.Trips_serve.Http.r_body;
      if resp.Trips_serve.Http.status = 200 then `Ok ()
      else
        `Error
          ( false,
            Printf.sprintf "server answered %d %s" resp.Trips_serve.Http.status
              (Trips_serve.Http.reason resp.Trips_serve.Http.status) )
  in
  match what with
  | "health" -> show (Client.get ~host ~port "/health")
  | "metrics" -> show (Client.get ~host ~port "/metrics")
  | "verbs" -> show (Client.get ~host ~port "/api/v1/verbs")
  | verb -> (
    match bench with
    | None ->
      `Error (false, "verb '" ^ verb ^ "' needs a BENCH positional argument")
    | Some bench -> (
      match Trips_harness.Service.make ~mode ~verb ~bench ~preset with
      | Result.Error msg -> `Error (false, msg)
      | Result.Ok r ->
        show
          (Client.post_json ~host ~port
             (Trips_serve.Protocol.api_prefix ^ verb)
             (Trips_serve.Protocol.run_request_body r))))

let serve_client_cmd =
  let doc = "Query a running trips_serve daemon." in
  let man =
    [
      `S Manpage.s_examples;
      `P "trips_run serve-client health";
      `P "trips_run serve-client timing fft --preset C --port 8123";
      `P "trips_run serve-client metrics";
    ]
  in
  let host =
    Arg.(
      value
      & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"ADDR" ~doc:"Daemon address.")
  in
  let port =
    Arg.(
      value & opt int 8123
      & info [ "port"; "p" ] ~docv:"PORT" ~doc:"Daemon port.")
  in
  let what =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"WHAT"
          ~doc:
            "One of health, metrics, verbs, or a run verb (compile, lint, \
             timing, simulate, transval).")
  in
  let bench =
    Arg.(
      value
      & pos 1 (some string) None
      & info [] ~docv:"BENCH" ~doc:"Benchmark name for run verbs.")
  in
  let preset =
    Arg.(
      value & opt string "C"
      & info [ "preset" ] ~docv:"PRESET" ~doc:"Code-quality preset.")
  in
  let mode =
    Arg.(
      value & opt string ""
      & info [ "mode" ] ~docv:"detail|sampled"
          ~doc:"Simulation engine for the simulate verb.")
  in
  Cmd.v
    (Cmd.info "serve-client" ~doc ~man)
    Term.(
      ret
        (const serve_client_main $ host $ port $ what $ bench $ preset $ mode))

(* -- fuzz ------------------------------------------------------------- *)

module Fuzz_gen = Trips_fuzz.Gen
module Fuzz_oracle = Trips_fuzz.Oracle
module Fuzz_batch = Trips_fuzz.Batch
module Fuzz_corpus = Trips_fuzz.Corpus

let fuzz_main seed count presets max_stmts jobs inject shrink_evals format out
    corpus =
  try
    let count =
      match count with
      | Some n -> n
      | None -> (
        match Sys.getenv_opt "TRIPS_FUZZ_FULL" with
        | Some ("1" | "true" | "yes") -> 5000
        | _ -> 100)
    in
    let presets =
      match presets with
      | [] -> Fuzz_oracle.all_presets
      | ps -> List.map lint_preset_of ps
    in
    let inject =
      Option.map
        (fun s ->
          match Fuzz_oracle.inject_of_string s with
          | Some i -> i
          | None ->
            invalid_arg ("unknown injection " ^ s ^ " (geni-bump|imm-bump|absint-N)"))
        inject
    in
    let oracle = Fuzz_xv.oracle ~presets ?inject () in
    let gen_cfg = { Fuzz_gen.default_cfg with Fuzz_gen.max_stmts } in
    let t =
      Fuzz_batch.run ~workers:jobs ~gen_cfg ~shrink_evals oracle ~seed ~count ()
    in
    let report_json = Fuzz_batch.to_json t in
    (match format with
    | "txt" -> Trips_util.Table.print (Fuzz_batch.table t)
    | "json" -> print_string (Json.to_string report_json)
    | f -> invalid_arg ("unknown format " ^ f ^ " (txt|json)"));
    (match out with
    | Some file ->
      let oc = open_out file in
      output_string oc (Json.to_string report_json);
      close_out oc;
      Printf.eprintf "fuzz report: %s\n" file
    | None -> ());
    (match corpus with
    | Some dir ->
      List.iter
        (fun ((r : Fuzz_batch.row), (f : Fuzz_oracle.failure), sh) ->
          let config = if f.Fuzz_oracle.f_config = "" then "ref" else f.Fuzz_oracle.f_config in
          let entry =
            {
              Fuzz_corpus.e_name =
                Printf.sprintf "s%d-%s-%s" r.Fuzz_batch.b_seed
                  f.Fuzz_oracle.f_check config;
              e_seed = r.Fuzz_batch.b_seed;
              e_check = f.Fuzz_oracle.f_check;
              e_config = f.Fuzz_oracle.f_config;
              e_detail = f.Fuzz_oracle.f_detail;
              e_inject = t.Fuzz_batch.bt_inject;
              e_program = sh.Trips_fuzz.Shrink.sh_program;
            }
          in
          Printf.eprintf "corpus entry: %s\n" (Fuzz_corpus.save dir entry))
        (Fuzz_batch.divergences t)
    | None -> ());
    if t.Fuzz_batch.bt_divergent > 0 then
      `Error
        ( false,
          Printf.sprintf "fuzz: %d divergence(s) across %d program(s)"
            t.Fuzz_batch.bt_divergent count )
    else `Ok ()
  with Invalid_argument msg | Sys_error msg | Failure msg -> `Error (false, msg)

let fuzz_cmd =
  let doc = "Differentially fuzz the whole pipeline with random TIR programs." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Generates seeded, well-typed random TIR programs (nested loops, \
         predication-heavy control, aliasing loads/stores, recursion, mixed \
         int/float arithmetic with division/shift edge operands) and runs \
         each through every selected compilation preset with verification \
         and translation validation on, cross-checking: strict lint \
         cleanliness, the static timing lower bound against simulated \
         cycles, and the EDGE executor, cycle simulator, lowered-CFG \
         interpreter and RISC backend against the AST interpreter. \
         Divergences auto-shrink to minimal repros.";
      `P
        "The run is deterministic for a fixed $(b,--seed) regardless of \
         $(b,--jobs): reports are byte-identical. Set TRIPS_FUZZ_FULL=1 to \
         raise the default program count to 5000.";
    ]
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N" ~doc:"Base generator seed (programs use seed, seed+1, ...).")
  in
  let count =
    Arg.(
      value
      & opt (some int) None
      & info [ "count" ] ~docv:"N"
          ~doc:"Programs to generate (default 100; 5000 under TRIPS_FUZZ_FULL=1).")
  in
  let presets =
    Arg.(
      value
      & opt_all string []
      & info [ "preset" ] ~docv:"O0|C|H|BB"
          ~doc:"Code-quality preset (repeatable; default all four).")
  in
  let max_stmts =
    Arg.(
      value & opt int Fuzz_gen.default_cfg.Fuzz_gen.max_stmts
      & info [ "max-stmts" ] ~docv:"N" ~doc:"Statement budget per function.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N" ~doc:"Worker domains for the engine.")
  in
  let inject =
    Arg.(
      value
      & opt (some string) None
      & info [ "inject" ] ~docv:"geni-bump|imm-bump|absint-N"
          ~doc:
            "Inject a compiler bug into every compiled program (the PR 6 \
             mutation style); the oracle must catch and shrink it.")
  in
  let shrink_evals =
    Arg.(
      value & opt int 2000
      & info [ "shrink-evals" ] ~docv:"N"
          ~doc:"Oracle evaluation budget per shrink.")
  in
  let format =
    Arg.(
      value & opt string "txt"
      & info [ "format" ] ~docv:"txt|json" ~doc:"Report rendering.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Also write the JSON report to $(docv).")
  in
  let corpus =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:"Save every shrunk divergence as a corpus entry under $(docv).")
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc ~man)
    Term.(
      ret
        (const fuzz_main $ seed $ count $ presets $ max_stmts $ jobs $ inject
       $ shrink_evals $ format $ out $ corpus))

(* -- default: the parallel experiment engine -------------------------- *)

module Engine = Trips_engine.Engine
module Artifacts = Trips_engine.Artifacts
module Result_cache = Trips_engine.Result_cache

let engine_main all ids jobs cache_dir out format =
  if (not all) && ids = [] then
    `Help (`Auto, None)
  else begin
    try
    let format =
      match Artifacts.format_of_string format with
      | Some f -> f
      | None -> invalid_arg ("unknown format " ^ format ^ " (ascii|json|csv)")
    in
    let experiments =
      if all then Experiments.all
      else
        List.map
          (fun id ->
            match Experiments.find_opt id with
            | Some e -> e
            | None -> invalid_arg ("unknown experiment id " ^ id))
          ids
    in
    let cache = Option.map Result_cache.open_ cache_dir in
    let report =
      Engine.run ~workers:jobs ?cache (List.map Experiments.to_job experiments)
    in
    (* tables to stdout in the requested format, in registry order *)
    List.iter2
      (fun (e : Experiments.experiment) (r : Engine.job_report) ->
        match r.Engine.outcome with
        | Engine.Finished table ->
          if format = Artifacts.Ascii then
            Printf.printf "=== %s: %s ===\n%s\n" e.Experiments.id
              e.Experiments.title
              (Artifacts.render format table)
          else print_string (Artifacts.render format table)
        | Engine.Failed { attempts; error } ->
          Printf.eprintf "%s: FAILED after %d attempt(s): %s\n"
            e.Experiments.id attempts error)
      experiments report.Engine.job_reports;
    (* run summary on stderr so json/csv stdout stays machine-readable *)
    Printf.eprintf
      "engine: %d job(s), %d worker(s), %.2fs wall, %d cache hit(s), %d miss(es), \
       %.0f%% worker utilization\n"
      (List.length report.Engine.job_reports)
      report.Engine.workers report.Engine.wall_s report.Engine.cache_hits
      report.Engine.cache_misses
      (100. *. Engine.utilization report);
    List.iter
      (fun (r : Engine.job_report) ->
        Printf.eprintf "  %-10s %7.2fs %s\n" r.Engine.job_id r.Engine.work_s
          (if r.Engine.cache_hit then "cached"
           else
             match r.Engine.outcome with
             | Engine.Finished _ -> "computed"
             | Engine.Failed _ -> "FAILED"))
      report.Engine.job_reports;
    (match out with
    | Some dir ->
      let manifest =
        Artifacts.write_run ~dir ~metas:(List.map Experiments.meta experiments)
          ~report
      in
      Printf.eprintf "artifacts: %s\n" manifest
    | None -> ());
    let failed =
      List.exists
        (fun (r : Engine.job_report) ->
          match r.Engine.outcome with Engine.Failed _ -> true | _ -> false)
        report.Engine.job_reports
    in
    if failed then `Error (false, "one or more experiments failed") else `Ok ()
    with
    | Invalid_argument msg | Sys_error msg -> `Error (false, msg)
    | Unix.Unix_error (e, fn, arg) ->
      `Error (false, Printf.sprintf "%s %s: %s" fn arg (Unix.error_message e))
  end

let default_term =
  let all =
    Arg.(value & flag & info [ "all" ] ~doc:"Run every registered experiment.")
  in
  let ids =
    Arg.(
      value
      & opt_all string []
      & info [ "id" ] ~docv:"ID" ~doc:"Experiment id to run (repeatable).")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N" ~doc:"Worker domains for the engine.")
  in
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:"On-disk result cache; hits skip recomputation.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Write per-experiment artifacts (txt/json/csv) and manifest.json.")
  in
  let format =
    Arg.(
      value & opt string "ascii"
      & info [ "format" ] ~docv:"ascii|json|csv" ~doc:"Stdout rendering.")
  in
  Term.(
    ret (const engine_main $ all $ ids $ jobs $ cache_dir $ out $ format))

let () =
  (* The emulator allocates short-lived tokens at a high rate; a larger
     minor heap keeps them out of the major heap and cuts GC overhead on
     long simulations. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024 };
  let doc = "TRIPS/EDGE reproduction driver" in
  let info = Cmd.info "trips_run" ~doc in
  exit
    (Cmd.eval
       (Cmd.group ~default:default_term info
          [ list_cmd; run_cmd; exp_cmd; disasm_cmd; lint_cmd; absint_cmd;
            timing_cmd; sampling_cmd; transval_cmd; simbench_cmd; fuzz_cmd;
            serve_client_cmd ]))
