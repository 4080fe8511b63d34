module Registry = Trips_workloads.Registry
module Preset = Trips_workloads.Preset
module Analyzer = Trips_analysis.Analyzer
module Diag = Trips_analysis.Diag
module Transval = Trips_analysis.Transval
module Block = Trips_edge.Block
module Core = Trips_sim.Core
module Timing = Trips_sim.Timing
module Table = Trips_util.Table

(* Bump when any verb's table layout or derivation changes, so stale
   cached responses cannot survive a refactor. *)
let schema = 1

type verb = Compile | Lint | Timing | Simulate | Transval_v

let verbs = [ Compile; Lint; Timing; Simulate; Transval_v ]

let verb_name = function
  | Compile -> "compile"
  | Lint -> "lint"
  | Timing -> "timing"
  | Simulate -> "simulate"
  | Transval_v -> "transval"

let verb_of_string s =
  match String.lowercase_ascii s with
  | "compile" -> Some Compile
  | "lint" -> Some Lint
  | "timing" -> Some Timing
  | "simulate" -> Some Simulate
  | "transval" -> Some Transval_v
  | _ -> None

type request = { verb : verb; bench : string; preset : string; mode : string }

(* Pipeline verbs traverse one compiler preset; execution verbs run the
   modeled platform at one code-quality level. *)
let presets_of_verb = function
  | Compile | Lint | Transval_v -> Preset.all
  | Timing | Simulate -> Preset.qualities

(* Only simulation has a second engine: the sampled estimator (exact
   execution, systematically sampled timing, confidence-interval cycle
   estimate). *)
let modes_of_verb = function
  | Simulate -> [ "detail"; "sampled" ]
  | Compile | Lint | Timing | Transval_v -> [ "detail" ]

let canonical_preset verb p =
  match Preset.of_string (if p = "" then "C" else p) with
  | Some t when List.mem t (presets_of_verb verb) -> Some (Preset.name t)
  | _ -> None

let canonical_mode verb m =
  let m =
    match String.lowercase_ascii m with "" | "detailed" -> "detail" | l -> l
  in
  if List.mem m (modes_of_verb verb) then Some m else None

let make ~mode ~verb ~bench ~preset =
  match verb_of_string verb with
  | None ->
    Result.Error
      (Printf.sprintf "unknown verb %S (one of: %s)" verb
         (String.concat ", " (List.map verb_name verbs)))
  | Some v -> (
    match canonical_preset v preset with
    | None ->
      Result.Error
        (Printf.sprintf "unknown preset %S for verb %s (one of: %s)" preset
           (verb_name v)
           (String.concat ", " (List.map Preset.name (presets_of_verb v))))
    | Some p -> (
      match canonical_mode v mode with
      | None ->
        Result.Error
          (Printf.sprintf "unknown mode %S for verb %s (one of: %s)" mode
             (verb_name v)
             (String.concat ", " (modes_of_verb v)))
      | Some m -> (
        match Registry.find bench with
        | b ->
          Result.Ok { verb = v; bench = b.Registry.name; preset = p; mode = m }
        | exception Not_found ->
          Result.Error
            (Printf.sprintf "unknown benchmark %S (see `trips_run list`)"
               bench))))

let id_of r =
  Printf.sprintf "%s/%s/%s%s" (verb_name r.verb) r.bench r.preset
    (if r.mode = "detail" then "" else "/" ^ r.mode)

(* The same content identity the batch engine uses: any config or
   workload change invalidates every stored response. *)
let cache_key r =
  Trips_engine.Result_cache.key
    ~parts:
      [
        "serve";
        string_of_int schema;
        verb_name r.verb;
        r.bench;
        r.preset;
        r.mode;
        Experiments.content_fingerprint ();
      ]

(* [make] stores the canonical name *)
let preset r = Option.get (Preset.of_string r.preset)

let kv_table rows =
  let t = Table.create [ ("metric", Table.Left); ("value", Table.Right) ] in
  List.iter (fun (k, v) -> Table.add_row t [ k; v ]) rows;
  t

let run_compile r (b : Registry.bench) =
  let prog = Preset.edge_program (preset r) b in
  let blocks = List.concat_map (fun f -> f.Block.blocks) prog.Block.funcs in
  let insts =
    List.fold_left (fun a (bl : Block.t) -> a + Array.length bl.Block.insts) 0 blocks
  in
  let reads =
    List.fold_left (fun a (bl : Block.t) -> a + Array.length bl.Block.reads) 0 blocks
  in
  let writes =
    List.fold_left (fun a (bl : Block.t) -> a + Array.length bl.Block.writes) 0 blocks
  in
  let nblocks = List.length blocks in
  kv_table
    [
      ("functions", string_of_int (List.length prog.Block.funcs));
      ("blocks", string_of_int nblocks);
      ("instructions", string_of_int insts);
      ("reads", string_of_int reads);
      ("writes", string_of_int writes);
      ( "avg_block_size",
        Table.fnum
          (if nblocks = 0 then 0. else float_of_int insts /. float_of_int nblocks)
      );
    ]

let lint p (b : Registry.bench) =
  match Preset.edge_program p b with
  | prog -> Analyzer.analyze_program prog
  | exception e ->
    [
      Diag.make ~pass:"driver" ~fname:b.Registry.name "compile-fail"
        (Printf.sprintf "compilation failed: %s" (Printexc.to_string e));
    ]

let run_lint r (b : Registry.bench) =
  let ds = lint (preset r) b in
  kv_table
    ([
       ("errors", string_of_int (Diag.errors ds));
       ("warnings", string_of_int (Diag.warnings ds));
       ("summary", Analyzer.summary ds);
     ]
    @ List.map
        (fun d -> ("finding:" ^ d.Diag.cls, string_of_int d.Diag.count))
        (Diag.dedup (Diag.sort ds)))

let run_timing r (b : Registry.bench) =
  let p = Timing_xv.predict (preset r) b in
  kv_table
    [
      ("predicted_cycles", string_of_int p.Timing.pr_cycles);
      ("block_instances", string_of_int p.Timing.pr_blocks);
      ("mispredicts", string_of_int p.Timing.pr_mispredicts);
      ("findings", string_of_int (List.length p.Timing.pr_diags));
    ]

(* The sampled engine's response carries the estimate and its error
   bound; exact functional statistics come from the same run. *)
let run_simulate_sampled r (b : Registry.bench) =
  let est = Sampling_xv.estimate (preset r) b in
  kv_table
    [
      ("estimated_cycles", Printf.sprintf "%.0f" est.Trips_sim.Sampled.es_cycles);
      ("ci95", Printf.sprintf "%.0f" est.Trips_sim.Sampled.es_ci95);
      ("intervals", string_of_int est.Trips_sim.Sampled.es_intervals);
      ( "measured_blocks",
        string_of_int est.Trips_sim.Sampled.es_measured_blocks );
      ("total_blocks", string_of_int est.Trips_sim.Sampled.es_total_blocks);
      ("cpb_mean", Table.fnum est.Trips_sim.Sampled.es_cpb_mean);
      ("cpb_stddev", Table.fnum est.Trips_sim.Sampled.es_cpb_stddev);
      ("full_detail", if est.Trips_sim.Sampled.es_full then "yes" else "no");
    ]

let run_simulate r (b : Registry.bench) =
  let res = Platforms.trips (preset r) b in
  let t = res.Core.timing in
  kv_table
    [
      ("cycles", string_of_int t.Core.cycles);
      ("blocks", string_of_int t.Core.blocks);
      ("ipc", Table.fnum (Core.ipc res));
      ("useful_ipc", Table.fnum (Core.useful_ipc res));
      ("avg_window", Table.fnum (Core.avg_window res));
      ("avg_opn_hops", Table.fnum res.Core.opn_average_hops);
      ("branch_mispredicts", string_of_int t.Core.branch_mispredicts);
      ("callret_mispredicts", string_of_int t.Core.callret_mispredicts);
      ("icache_misses", string_of_int t.Core.icache_misses);
      ("dcache_misses", string_of_int t.Core.dcache_misses);
      ("load_flushes", string_of_int t.Core.load_flushes);
    ]

let run_transval r (b : Registry.bench) =
  let cell = Transval_xv.cell_edge (preset r) b in
  let s = cell.Transval_xv.c_summary in
  kv_table
    [
      ("proved", string_of_int s.Transval.n_proved);
      ("concrete", string_of_int s.Transval.n_concrete);
      ("refuted", string_of_int s.Transval.n_refuted);
      ( "findings",
        string_of_int
          (List.length (Transval.report_diags cell.Transval_xv.c_reports)) );
    ]

let run r =
  let b = Registry.find r.bench in
  match r.verb with
  | Compile -> run_compile r b
  | Lint -> run_lint r b
  | Timing -> run_timing r b
  | Simulate ->
    if r.mode = "sampled" then run_simulate_sampled r b else run_simulate r b
  | Transval_v -> run_transval r b
