(* Command-line driver for the TRIPS reproduction.

     trips_run --all --jobs 4 --out _results          -- engine sweep
     trips_run --id table1 --id fig9 --format json    -- selected experiments
     trips_run --all --cache-dir _results/cache       -- cached re-run
     trips_run list                         -- registered benchmarks
     trips_run run fft --preset H --sim cycle
     trips_run disasm conv --preset C       -- EDGE block listing
     trips_run simbench --compare-ref       -- simulator throughput
     trips_run serve-bench --out FILE       -- trips_serve load report

   Each report subcommand (lint, absint, timing, sampling, transval,
   simbench, fuzz, serve-bench) writes the JSON report that
   `trips_run gate` checks against a bench/BENCH_*.json file. *)

open Cmdliner
module Registry = Trips_workloads.Registry
module Preset = Trips_workloads.Preset
module Image = Trips_tir.Image
module Ast = Trips_tir.Ast
module Ty = Trips_tir.Ty
module Exec = Trips_edge.Exec
module Core = Trips_sim.Core
module Sampled = Trips_sim.Sampled
module Json = Trips_util.Json
module Analyzer = Trips_analysis.Analyzer
module Diag = Trips_analysis.Diag
module Driver = Trips_compiler.Driver
module Transval = Trips_analysis.Transval
open Trips_harness

(* -- shared command vocabulary ----------------------------------------- *)

(* Every command's failure path: library errors become one-line
   [trips_run:] messages instead of uncaught exceptions. *)
let guard f =
  try f () with
  | Invalid_argument msg | Sys_error msg | Failure msg -> `Error (false, msg)
  | Not_found -> `Error (false, "unknown benchmark (see `trips_run list`)")
  | Unix.Unix_error (e, fn, arg) ->
    `Error (false, Printf.sprintf "%s %s: %s" fn arg (Unix.error_message e))

(* One --preset value: a {!Preset.of_string} spelling of one of [among]. *)
let parse_preset among s =
  match Preset.of_string s with
  | Some p when List.mem p among -> Ok p
  | _ ->
    Error
      (`Msg
        (Printf.sprintf "unknown preset %S (one of: %s)" s
           (String.concat ", " (List.map Preset.name among))))

let print_preset ppf p = Format.pp_print_string ppf (Preset.name p)

(* --preset for the commands that model only the paper's two code
   qualities. *)
let quality_arg =
  Arg.(
    value
    & opt (conv (parse_preset Preset.qualities, print_preset)) Preset.C
    & info [ "preset" ] ~docv:"C|H" ~doc:"Code quality.")

(* Repeatable --preset over every preset, [default] when absent;
   [aliases] adds command-specific names for several presets at once. *)
let presets_arg ?(aliases = []) ~docv ~doc default =
  let parse s =
    match List.assoc_opt s aliases with
    | Some ps -> Ok ps
    | None -> Result.map (fun p -> [ p ]) (parse_preset Preset.all s)
  in
  let presets = Arg.conv (parse, Format.pp_print_list print_preset) in
  Term.(
    const (function [] -> default | ps -> List.concat ps)
    $ Arg.(value & opt_all presets [] & info [ "preset" ] ~docv ~doc))

let format_arg =
  Arg.(
    value
    & opt (enum [ ("txt", `Txt); ("json", `Json) ]) `Txt
    & info [ "format" ] ~docv:"txt|json" ~doc:"Report rendering.")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE" ~doc:"Also write the JSON report to $(docv).")

(* Integer counts: cmdliner refuses N < 1 before any work. *)
let positive =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected an integer >= 1, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* --jobs/-j: worker domains. *)
let jobs_arg =
  Arg.(
    value & opt positive 1
    & info [ "jobs"; "j" ] ~docv:"N" ~doc:"Worker domains for the engine.")

let write_report ~what file json =
  Out_channel.with_open_text file (fun oc ->
      output_string oc (Json.to_string json));
  Printf.eprintf "%s report: %s\n" what file

(* --format and --out: the report goes to stdout in the chosen rendering
   and, as JSON, to the --out file. *)
let render ~what ~format ~out json txt =
  (match format with
  | `Txt -> txt ()
  | `Json -> print_string (Json.to_string json));
  Option.iter (fun file -> write_report ~what file json) out

type selection = { names : string list; all : bool }

(* --bench and --all.  Names resolve under [guard], so an unknown one is
   a one-line error. *)
let selection_arg ~verb ~all_doc =
  let names =
    Arg.(
      value & opt_all string []
      & info [ "bench" ] ~docv:"NAME"
          ~doc:(Printf.sprintf "Benchmark to %s (repeatable)." verb))
  in
  let all = Arg.(value & flag & info [ "all" ] ~doc:all_doc) in
  Term.(const (fun names all -> { names; all }) $ names $ all)

let select ~default sel =
  if sel.all then Registry.all
  else if sel.names = [] then default
  else List.map Registry.find sel.names

(* Shared exit policy for the report commands: error-level findings
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

type report = {
  json : Json.t;             (* --format json and --out *)
  txt : unit -> unit;        (* --format txt *)
  findings : Diag.t list;    (* the exit status, under strict_exit *)
}

(* A report command: [compute] holds the command's own flags and work;
   rendering, --out, error mapping and the exit status are shared.
   [strict_doc] adds --strict to commands whose exit depends on it. *)
let report_cmd name ~doc ~man ?strict_doc compute =
  let strict =
    match strict_doc with
    | Some doc -> Arg.(value & flag & info [ "strict" ] ~doc)
    | None -> Term.const false
  in
  let run compute format strict out =
    guard (fun () ->
        let r = compute ~strict in
        render ~what:name ~format ~out r.json r.txt;
        strict_exit ~what:name ~strict r.findings)
  in
  Cmd.v (Cmd.info name ~doc ~man)
    Term.(ret (const run $ compute $ format_arg $ strict $ out_arg))

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

let run_bench name q sim =
  let b = Registry.find name in
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
  let main name q sim = guard (fun () -> `Ok (run_bench name q sim)) in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(ret (const main $ bench_arg $ quality_arg $ sim_arg))

(* -- disasm ----------------------------------------------------------- *)

let disasm_cmd =
  let doc = "Print the compiled EDGE blocks of a benchmark." in
  let run name q =
    guard (fun () ->
        let prog = Platforms.edge_program q (Registry.find name) in
        `Ok (Format.printf "%a@." Trips_edge.Block.pp_program prog))
  in
  Cmd.v (Cmd.info "disasm" ~doc) Term.(ret (const run $ bench_arg $ quality_arg))

(* -- lint ------------------------------------------------------------- *)

let lint_report sel presets ~strict =
  let benches = select ~default:Registry.all sel in
  let results =
    List.concat_map
      (fun (b : Registry.bench) ->
        List.map
          (fun tag ->
            (b.Registry.name, Preset.name tag, Service.lint tag b))
          presets)
      benches
  in
  let all_ds = List.concat_map (fun (_, _, ds) -> ds) results in
  let json =
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
  let txt () =
    List.iter
      (fun (name, ptag, ds) ->
        if ds <> [] then begin
          Printf.printf "%s [%s]: %s\n" name ptag (Analyzer.summary ds);
          print_string (Diag.render_text ds)
        end)
      results;
    Printf.printf "lint: %d program(s) (%d benchmark(s) x %d preset(s)): %s\n"
      (List.length results) (List.length benches) (List.length presets)
      (Analyzer.summary all_ds)
  in
  { json; txt; findings = all_ds }

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
  report_cmd "lint" ~doc ~man
    ~strict_doc:"Fail on warnings as well as errors."
    Term.(
      const lint_report
      $ selection_arg ~verb:"lint" ~all_doc:"Lint every registered benchmark."
      $ presets_arg ~docv:"O0|C|H|BB"
          ~doc:"Code-quality preset (repeatable; default C and H)."
          Preset.qualities)

(* -- absint ----------------------------------------------------------- *)

let absint_report sel presets validate ~strict =
  let benches = select ~default:Registry.all sel in
  let results =
    List.concat_map
      (fun (b : Registry.bench) ->
        List.map
          (fun tag ->
            let ptag = Preset.name tag in
            let r = Absint_xv.row tag b in
            let ds = Absint_xv.diags_of tag b in
            (* full translation validation, shared with the transval
               sweep: every applied global fact and LSID relaxation is
               re-derived and replayed *)
            let refuted =
              if validate then
                Some
                  (Transval.summarize (Transval_xv.validate_edge tag b))
                    .Transval.n_refuted
              else None
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
      (fun acc (_, _, _, _, refuted) -> acc + Option.value refuted ~default:0)
      0 results
  in
  let json =
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
  let txt () =
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
  in
  { json; txt; findings = refute_ds @ all_ds }

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
  let validate =
    Arg.(
      value & flag
      & info [ "validate" ]
          ~doc:
            "Also run the translation validator and fail on any refutation.")
  in
  report_cmd "absint" ~doc ~man
    ~strict_doc:"Fail on warnings as well as errors."
    Term.(
      const absint_report
      $ selection_arg ~verb:"analyze" ~all_doc:"Analyze every registered benchmark."
      $ presets_arg ~docv:"O0|C|H|BB"
          ~doc:"Code-quality preset (repeatable; default C and H)."
          Preset.qualities
      $ validate)

(* -- timing ----------------------------------------------------------- *)

module Timing = Trips_sim.Timing

let timing_report sel simple q top xval ~strict:_ =
  let benches =
    select ~default:Registry.simple_suite
      (if simple then { sel with names = [] } else sel)
  in
  let per_bench =
    List.map
      (fun (b : Registry.bench) ->
        let p = Timing_xv.predict q b in
        let measured =
          if xval then Some (Platforms.trips q b).Core.timing.Core.cycles
          else None
        in
        (b, p, measured))
      benches
  in
  let top_blocks (p : Timing.prediction) =
    let items =
      Hashtbl.fold
        (fun label (s : Timing.summary) acc ->
          let count =
            Option.value ~default:0 (Hashtbl.find_opt p.Timing.pr_counts label)
          in
          (* rank by dynamic contribution; never-executed blocks last *)
          ( (count * Timing.predicted_block_cost Core.prototype s, s.Timing.s_crit),
            label, count, s )
          :: acc)
        p.Timing.pr_summaries []
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
  (* predicted vs measured cycles of the cross-validated programs *)
  let predicted, actual =
    List.split
      (List.filter_map
         (fun (_, (p : Timing.prediction), m) ->
           Option.map
             (fun m -> (float_of_int p.Timing.pr_cycles, float_of_int m))
             m)
         per_bench)
  in
  let all_ds = List.concat_map (fun (_, p, _) -> p.Timing.pr_diags) per_bench in
  let json =
    let programs =
      List.map
        (fun ((b : Registry.bench), (p : Timing.prediction), measured) ->
          Json.Obj
            ([
               ("bench", Json.Str b.Registry.name);
               ("preset", Json.Str (Preset.name q));
               ("predicted_cycles", Json.Int p.Timing.pr_cycles);
             ]
            @ (match measured with
              | Some m ->
                [ ("measured_cycles", Json.Int m) ]
                @
                (match err_pct p.Timing.pr_cycles measured with
                | Some e -> [ ("error_pct", Json.Float e) ]
                | None -> [])
              | None -> [])
            @ [
                ("blocks", Json.Int p.Timing.pr_blocks);
                ("mispredicts", Json.Int p.Timing.pr_mispredicts);
                ("top_blocks", Json.List (List.map block_json (top_blocks p)));
                ("findings", Diag.list_to_json p.Timing.pr_diags);
              ]))
        per_bench
    in
    let xv_summary =
      if xval then
        [
          ("pearson", Json.Float (Trips_util.Stats.pearson predicted actual));
          ("mape", Json.Float (Trips_util.Stats.mape ~predicted ~actual));
        ]
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
  let txt () =
    List.iter
      (fun ((b : Registry.bench), (p : Timing.prediction), measured) ->
        Printf.printf "%s [%s]: predicted %d cycles" b.Registry.name
          (Preset.name q) p.Timing.pr_cycles;
        (match measured with
        | Some m ->
          Printf.printf " (measured %d" m;
          (match err_pct p.Timing.pr_cycles measured with
          | Some e -> Printf.printf ", %+.1f%%" e
          | None -> ());
          print_string ")"
        | None -> ());
        Printf.printf ", %d block instance(s), %d mispredict(s)\n"
          p.Timing.pr_blocks p.Timing.pr_mispredicts;
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
        print_string (Diag.render_text p.Timing.pr_diags);
        print_newline ())
      per_bench;
    if xval then
      Printf.printf "cross-validation: %d program(s), pearson %.3f, mape %.1f%%\n"
        (List.length predicted)
        (Trips_util.Stats.pearson predicted actual)
        (Trips_util.Stats.mape ~predicted ~actual)
  in
  { json; txt; findings = all_ds }

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
  let simple =
    Arg.(
      value & flag
      & info [ "simple" ] ~doc:"Analyze the paper's Simple suite (default).")
  in
  let top =
    Arg.(
      value & opt positive 3
      & info [ "top" ] ~docv:"N"
          ~doc:"Blocks to detail per benchmark, hottest first.")
  in
  let xval =
    Arg.(
      value & flag
      & info [ "xval" ]
          ~doc:"Cross-validate: also run the cycle-level simulator.")
  in
  report_cmd "timing" ~doc ~man
    ~strict_doc:"Fail (non-zero exit) when placement findings are reported."
    Term.(
      const timing_report
      $ selection_arg ~verb:"analyze" ~all_doc:"Analyze every registered benchmark."
      $ simple $ quality_arg $ top $ xval)

(* -- sampling --------------------------------------------------------- *)

let sampling_report sel q ~strict:_ =
  let rs = Sampling_xv.rows ~quality:q (select ~default:Registry.all sel) in
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
  let json =
    Json.Obj
      [
        ("preset", Json.Str (Preset.name q));
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
  let txt () =
    Trips_util.Table.print (Sampling_xv.table_of rs);
    Printf.printf
      "sampling accuracy: %d program(s), %d within CI, mean |error| %.2f%%\n"
      (List.length rs) within mean_err
  in
  { json; txt; findings = [] }

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
  report_cmd "sampling" ~doc ~man
    Term.(
      const sampling_report
      $ selection_arg ~verb:"check"
          ~all_doc:"Check every registered benchmark (default)."
      $ quality_arg)

(* -- transval --------------------------------------------------------- *)

let transval_report sel presets (edge, risc) ~strict =
  let benches = select ~default:Registry.all sel in
  let cells =
    Transval_xv.sweep ~presets:(if edge then presets else []) ~risc benches
  in
  let cell_diags (c : Transval_xv.cell) =
    Transval.report_diags c.Transval_xv.c_reports
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
        ("findings", Diag.list_to_json (cell_diags c));
      ]
  in
  let all_ds = List.concat_map cell_diags cells in
  let tp, tc, tr =
    List.fold_left
      (fun (p, co, r) (c : Transval_xv.cell) ->
        let s = c.Transval_xv.c_summary in
        ( p + s.Transval.n_proved,
          co + s.Transval.n_concrete,
          r + s.Transval.n_refuted ))
      (0, 0, 0) cells
  in
  let json =
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
  let txt () =
    List.iter
      (fun (c : Transval_xv.cell) ->
        let s = c.Transval_xv.c_summary in
        Printf.printf "%s [%s]: proved=%d concrete=%d refuted=%d\n"
          c.Transval_xv.c_bench c.Transval_xv.c_config s.Transval.n_proved
          s.Transval.n_concrete s.Transval.n_refuted;
        print_string (Diag.render_text (cell_diags c)))
      cells;
    Printf.printf
      "transval: %d program(s) (%d benchmark(s)): proved=%d concrete=%d \
       refuted=%d\n"
      (List.length cells) (List.length benches) tp tc tr
  in
  { json; txt; findings = all_ds }

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
        "The full matrix is $(b,--preset) O0 $(b,--preset) C $(b,--preset) H \
         $(b,--preset) BB $(b,--isa) both.";
    ]
  in
  let isa =
    Arg.(
      value
      & opt
          (enum
             [ ("edge", (true, false)); ("risc", (false, true));
               ("both", (true, true)) ])
          (true, true)
      & info [ "isa" ] ~docv:"edge|risc|both" ~doc:"Backend(s) to validate.")
  in
  report_cmd "transval" ~doc ~man
    ~strict_doc:"Fail on warnings (path-limit truncations) as well as refutations."
    Term.(
      const transval_report
      $ selection_arg ~verb:"validate" ~all_doc:"Validate every registered benchmark."
      $ presets_arg
          ~aliases:Preset.[ ("fast", [ O0; C ]) ]
          ~docv:"O0|C|H|BB|fast"
          ~doc:
            "Code-quality preset (repeatable; $(b,fast) = O0 and C; default \
             fast)."
          Preset.[ O0; C ]
      $ isa)

(* -- simbench --------------------------------------------------------- *)

module Core_ref = Trips_sim.Core_ref

(* One sequential cycle-simulator sweep over the registered workloads.
   Compilation and image building happen outside the timed region so the
   clocks measure the selected engine alone: an exact engine (`Core` or
   `Core_ref`, which share their types) or the `Sampled` estimator.  Both
   wall and process CPU time are recorded: the shared machines this runs
   on carry unpredictable background load, so throughput gates use the
   CPU-time ratio, which that noise cancels out of.  Each row comes with
   its run's operand-network profile (packets per class and hop bucket,
   hops, contention cycles), which [--compare-ref] compares too; the
   sweep also counts the [Core] runs whose OPN reservation ring spilled
   into its overflow table (a slower path with the same answers), and
   the words the sweep allocates on the minor heap: a count that, unlike
   a clock, is the same on every run, so a gate on it catches a hot path
   that starts boxing again without any noise band. *)
let simbench_sweep engine q benches =
  let jobs =
    List.map
      (fun (b : Registry.bench) ->
        let prog = Platforms.edge_program q b in
        (b, prog, Image.build b.Registry.program.Ast.globals))
      benches
  in
  let t0 = Unix.gettimeofday () in
  let c0 = Sys.time () in
  let w0 = Gc.minor_words () in
  let spills = ref 0 in
  let results =
    List.map
      (fun ((b : Registry.bench), prog, image) ->
        let row (r : Core.result) cycles blocks =
          let t = r.Core.timing in
          ( ( b.Registry.name, cycles, blocks, t.Core.branch_mispredicts,
              t.Core.callret_mispredicts, t.Core.dcache_misses,
              t.Core.load_flushes ),
            r.Core.opn )
        in
        match engine with
        | (`Core | `Ref) as exact ->
          let r =
            if exact = `Ref then Core_ref.run prog image ~entry:"main" ~args:[]
            else begin
              (* [Core.run], with the model state kept *)
              let s = Core.make_sim prog in
              let r =
                Core.drive s ~time:Core.interp_time prog image ~entry:"main"
                  ~args:[]
              in
              if Trips_noc.Opn.spilled s.Core.opn then incr spills;
              r
            end
          in
          row r r.Core.timing.Core.cycles r.Core.timing.Core.blocks
        | `Sampled ->
          (* the estimate replaces cycles; the remaining stats cover the
             detailed stretches only, so the row is informational and is
             never compared against the exact engines *)
          let r, est = Sampled.run prog image ~entry:"main" ~args:[] in
          row r (int_of_float est.Sampled.es_cycles) r.Core.exec.Exec.blocks)
      jobs
  in
  let words = Gc.minor_words () -. w0 in
  let wall = Unix.gettimeofday () -. t0 in
  let cpu = Sys.time () -. c0 in
  (results, !spills, wall, cpu, words)

let simbench_main q fixture out compare_ref =
  guard @@ fun () ->
  let preset = Preset.name q in
  let benches = Registry.all in
  let results, spills, wall, cpu, words = simbench_sweep `Core q benches in
  let rows = List.map fst results in
  let blocks = List.fold_left (fun a (_, _, b, _, _, _, _) -> a + b) 0 rows in
  let bps w = if w > 0. then float_of_int blocks /. w else 0. in
  let per_block w = w /. float_of_int (max 1 blocks) in
  Printf.printf
    "simbench: %d workload(s) [%s], %d block instances, %.2fs wall (%.2fs \
     cpu), %.0f blocks/s, %.1f minor words/block, %d OPN ring spill(s)\n%!"
    (List.length rows) preset blocks wall cpu (bps cpu) (per_block words) spills;
  let ref_times =
    if compare_ref then begin
      let ref_results, _, ref_wall, ref_cpu, _ = simbench_sweep `Ref q benches in
      List.iter2
        (fun (((name, _, _, _, _, _, _) as row), opn) (ref_row, ref_opn) ->
          let disagree what =
            failwith
              (Printf.sprintf
                 "simbench: optimized and reference simulators disagree on %s %s"
                 name what)
          in
          if row <> ref_row then disagree "statistics";
          if opn <> ref_opn then disagree "OPN profile")
        results ref_results;
      Printf.printf
        "simbench: reference sweep %.2fs wall (%.2fs cpu), %.0f blocks/s — \
         speedup x%.2f (stats and OPN profiles identical)\n%!"
        ref_wall ref_cpu (bps ref_cpu) (ref_cpu /. cpu);
      Some (ref_wall, ref_cpu)
    end
    else None
  in
  (* sampled estimator: throughput plus estimate quality *)
  let samp_results, _, samp_wall, samp_cpu, samp_words =
    simbench_sweep `Sampled q benches
  in
  let samp_err =
    (* mean absolute estimate error vs the exact sweep, in percent *)
    let tot, n =
      List.fold_left2
        (fun (tot, n) ((_, est, _, _, _, _, _), _) (_, cy, _, _, _, _, _) ->
          if cy > 0 then
            (tot +. (abs_float (float_of_int (est - cy)) /. float_of_int cy), n + 1)
          else (tot, n))
        (0., 0) samp_results rows
    in
    if n = 0 then 0. else 100. *. tot /. float_of_int n
  in
  Printf.printf
    "simbench: sampled sweep %.2fs wall (%.2fs cpu), %.0f blocks/s, %.1f \
     minor words/block — speedup x%.2f vs Core, mean |error| %.2f%%\n%!"
    samp_wall samp_cpu (bps samp_cpu) (per_block samp_words) (cpu /. samp_cpu)
    samp_err;
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
  Option.iter
    (fun file ->
      write_report ~what:"simbench" file
        (Json.Obj
           ([
              ("preset", Json.Str preset);
              ("workloads", Json.Int (List.length rows));
              ("blocks", Json.Int blocks);
              ("wall_s", Json.Float wall);
              ("cpu_s", Json.Float cpu);
              ("blocks_per_s", Json.Float (bps cpu));
              ("minor_words_per_block", Json.Float (per_block words));
              ("opn_spills", Json.Int spills);
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
               ("sampled_minor_words_per_block", Json.Float (per_block samp_words));
               ("speedup_vs_plan_sampled", Json.Float (cpu /. samp_cpu));
               ("sampled_mean_abs_error_pct", Json.Float samp_err);
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
             ])))
    out;
  `Ok ()

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
         statistics and operand-network profiles must agree exactly or the \
         command fails.";
    ]
  in
  let fixture =
    Arg.(
      value
      & opt (some string) None
      & info [ "fixture" ] ~docv:"FILE"
          ~doc:"Write the per-workload golden fixture as OCaml source to $(docv).")
  in
  let compare_ref =
    Arg.(
      value & flag
      & info [ "compare-ref" ]
          ~doc:"Also sweep the frozen reference simulator and report speedup.")
  in
  Cmd.v
    (Cmd.info "simbench" ~doc ~man)
    Term.(ret (const simbench_main $ quality_arg $ fixture $ out_arg $ compare_ref))

(* -- serve-bench: load report of the trips_serve daemon --------------- *)

let serve_bench_cmd =
  let doc = "Measure the trips_serve daemon under closed-loop load." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Boots in-process servers and runs three phases: 16 identical \
         concurrent requests against a cold 1-worker server (in-flight \
         dedup), a warmed 4-worker server swept at 1, 4 and 8 closed-loop \
         clients of 20 requests each (throughput and latency), and 32 \
         distinct cold requests against a 1-worker, 2-deep-queue server \
         (the overflow must be answered 429).  The report is the input of \
         $(b,trips_run gate bench/BENCH_serve.json).";
    ]
  in
  let run out =
    guard @@ fun () ->
    let json = Trips_serve.Load.report ~log:(Printf.printf "%s\n%!") in
    Option.iter (fun file -> write_report ~what:"serve-bench" file json) out;
    `Ok ()
  in
  Cmd.v (Cmd.info "serve-bench" ~doc ~man) Term.(ret (const run $ out_arg))

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
  guard @@ fun () ->
  let count =
    match count with
    | Some n -> n
    | None -> (
      match Sys.getenv_opt "TRIPS_FUZZ_FULL" with
      | Some ("1" | "true" | "yes") -> 5000
      | _ -> 100)
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
  let oracle = Fuzz_oracle.make ~presets:(List.map Preset.driver presets) ?inject () in
  let gen_cfg = { Fuzz_gen.default_cfg with Fuzz_gen.max_stmts } in
  let t =
    Fuzz_batch.run ~workers:jobs ~gen_cfg ~shrink_evals oracle ~seed ~count ()
  in
  render ~what:"fuzz" ~format ~out (Fuzz_batch.to_json t) (fun () ->
      Trips_util.Table.print (Fuzz_batch.table t));
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
      & opt (some positive) None
      & info [ "count" ] ~docv:"N"
          ~doc:"Programs to generate (default 100; 5000 under TRIPS_FUZZ_FULL=1).")
  in
  let presets =
    presets_arg ~docv:"O0|C|H|BB"
      ~doc:"Code-quality preset (repeatable; default all four)." Preset.all
  in
  let max_stmts =
    Arg.(
      value & opt positive Fuzz_gen.default_cfg.Fuzz_gen.max_stmts
      & info [ "max-stmts" ] ~docv:"N" ~doc:"Statement budget per function.")
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
        (const fuzz_main $ seed $ count $ presets $ max_stmts $ jobs_arg $ inject
       $ shrink_evals $ format_arg $ out_arg $ corpus))

(* -- gate -------------------------------------------------------------- *)

module Gate = Trips_util.Gate

let gate_main bench reports =
  guard @@ fun () ->
  let parse file =
    match Json.parse (In_channel.with_open_bin file In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith (file ^ ": " ^ e)
  in
  match Gate.of_json (parse bench) with
  | Error e -> `Error (false, bench ^ ": " ^ e)
  | Ok gates ->
    let reports = List.map (fun (name, file) -> (name, parse file)) reports in
    let failed =
      List.filter
        (fun g ->
          let failed, line =
            match Gate.check reports g with
            | Ok line -> (false, "gate ok: " ^ line)
            | Error line -> (true, "gate FAILED: " ^ line)
          in
          print_endline line;
          failed)
        gates
    in
    if failed = [] then `Ok ()
    else
      `Error
        ( false,
          Printf.sprintf "%s: %d of %d gate(s) failed" bench
            (List.length failed) (List.length gates) )

let gate_cmd =
  let doc = "Check JSON reports against the thresholds of a BENCH file." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Each entry of the BENCH file's $(b,thresholds) list names a \
         report, a dotted path from that report's root and an inclusive \
         $(b,min) or $(b,max) bound.  Every $(i,NAME)=$(i,REPORT) argument \
         supplies the JSON report for one name.  The command fails when a \
         value is past its bound, when a path is missing or not a number, \
         or when a named report is not supplied.";
      `S Manpage.s_examples;
      `P
        "trips_run gate bench/BENCH_timing.json timing=timing-report.json";
    ]
  in
  let bench =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"BENCH_FILE")
  in
  let reports =
    Arg.(
      value
      & pos_right 0 (pair ~sep:'=' string file) []
      & info [] ~docv:"NAME=REPORT")
  in
  Cmd.v (Cmd.info "gate" ~doc ~man) Term.(ret (const gate_main $ bench $ reports))

(* -- default: the parallel experiment engine -------------------------- *)

module Engine = Trips_engine.Engine
module Artifacts = Trips_engine.Artifacts
module Result_cache = Trips_engine.Result_cache

let find_experiment id =
  match Experiments.find_opt id with
  | Some e -> e
  | None -> invalid_arg ("unknown experiment id " ^ id)

let engine_main all ids jobs cache_dir out format =
  if (not all) && ids = [] then `Help (`Auto, None)
  else
    guard @@ fun () ->
    let experiments =
      if all then Experiments.all else List.map find_experiment ids
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
            Printf.printf "=== %s: %s ===\nPaper: %s\n%s\n" e.Experiments.id
              e.Experiments.title e.Experiments.paper_claim
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
      value
      & opt
          (enum Artifacts.[ ("ascii", Ascii); ("json", Json_fmt); ("csv", Csv) ])
          Artifacts.Ascii
      & info [ "format" ] ~docv:"ascii|json|csv" ~absent:"ascii"
          ~doc:"Stdout rendering.")
  in
  Term.(
    ret (const engine_main $ all $ ids $ jobs_arg $ cache_dir $ out $ format))

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
          [ list_cmd; run_cmd; disasm_cmd; lint_cmd; absint_cmd;
            timing_cmd; sampling_cmd; transval_cmd; simbench_cmd; fuzz_cmd;
            serve_bench_cmd; serve_client_cmd; gate_cmd ]))
