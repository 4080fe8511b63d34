(* The two simulation workloads.

   detail: exact [Core.run] at preset C.  Every suite is represented,
   from short kernels to SPEC proxies, and one pass is about 3 s on a
   2-core Xeon.  The functional emulator and the dataflow timer split
   most of the time, so an emulator, occupancy or timer change shows.

   sampled: [Sampled.run] with its required arguments only, over
   programs with at least 24 sampling periods of block instances, so
   sampling engages instead of falling back to full detail.  The same
   layers are used differently: the emulator dominates and detailed
   timing is small, so a timer-only change should barely move it.

   Every program starts on a fresh memory image with empty modelled
   caches and untrained predictors (a fresh [Core.sim] per run). *)

module Registry = Trips_workloads.Registry
module Driver = Trips_compiler.Driver
module Core = Trips_sim.Core
module Sampled = Trips_sim.Sampled
module Exec = Trips_edge.Exec
module Block = Trips_edge.Block
module Image = Trips_tir.Image
module Json = Trips_util.Json

let detail_set =
  [ "conv"; "matrix"; "fmradio"; "routelookup"; "ospf"; "aifirf"; "text";
    "cjpeg"; "gzip"; "mcf"; "parser"; "equake"; "applu"; "mesa" ]

let sampled_set =
  [ "fmradio"; "ospf"; "routelookup"; "fbital"; "matrix01"; "cjpeg";
    "crafty"; "gcc"; "gzip"; "mcf"; "parser"; "perlbmk"; "applu"; "art";
    "equake"; "swim" ]

type prog = { bench : string; program : Block.program; image : Image.t }

(* Set-up: compile every program at C and lay out its initial memory. *)
let prepare names =
  Array.of_list
    (List.map
       (fun name ->
         let b = Registry.find name in
         Span.with_ ~args:[ ("bench", Json.Str name) ] "Trips_compiler.Driver.compile"
           (fun () ->
             {
               bench = name;
               program = Driver.compile Driver.compiled b.Registry.program;
               image = Image.build b.Registry.program.Trips_tir.Ast.globals;
             }))
       names)

let exec_standalone run p =
  let r, dt =
    Span.measure "Trips_edge.Exec.run" (fun () ->
        Exec.run ~on_instance:ignore p.program (Image.copy p.image)
          ~entry:"main" ~args:[])
  in
  Run.add run "exec.run_s" dt;
  Run.addi run "exec.blocks" r.Exec.stats.Exec.blocks;
  Run.addi run "exec.insts" r.Exec.stats.Exec.executed

(* Simulated statistics of one run; identical on every host-only change. *)
let sim_stats run (r : Core.result) ~cycles =
  let t = r.Core.timing in
  Run.addi run "cache.l1i_misses" t.Core.icache_misses;
  Run.addi run "cache.l1d_misses" t.Core.dcache_misses;
  Run.addi run "cache.l2_misses" t.Core.l2_misses;
  Run.addi run "pred.mispredicts"
    (t.Core.branch_mispredicts + t.Core.callret_mispredicts);
  Run.addi run "lsq.load_flushes" t.Core.load_flushes;
  Run.addi run "sim.executed" r.Core.exec.Exec.executed;
  Run.add run "sim.cycles" cycles

(* [Core.run] split at its seams: [make_sim], then [drive] with a timer
   that wraps [Core.interp_time], so the dataflow timer's share is
   measured from the benchmark side.  All [time_block] calls of one
   program become a single aggregate span. *)
let traced_core run p =
  let s, m =
    Span.measure "Trips_sim.Core.make_sim" (fun () -> Core.make_sim p.program)
  in
  let tb = ref 0. and calls = ref 0 in
  let time sim plan inst ~dispatch_start =
    let t0 = Unix.gettimeofday () in
    let r = Core.interp_time sim plan inst ~dispatch_start in
    tb := !tb +. (Unix.gettimeofday () -. t0);
    incr calls;
    r
  in
  let d0 = Unix.gettimeofday () in
  let r = Core.drive s ~time p.program (Image.copy p.image) ~entry:"main" ~args:[] in
  let d = Unix.gettimeofday () -. d0 in
  (* same start, shorter: the aggregate nests under drive *)
  Span.add "Trips_sim.Core.drive" ~start:d0 ~dur:d;
  Span.add "Trips_sim.Core.time_block" ~start:d0 ~dur:!tb
    ~args:[ ("calls", Json.Int !calls) ];
  Run.add run "core.make_sim_s" m;
  Run.add run "core.drive_s" d;
  Run.add run "core.time_block_s" !tb;
  Run.addi run "core.time_block_calls" !calls;
  let o = r.Core.opn in
  Run.addi run "opn.packets" o.Trips_noc.Opn.total_packets;
  Run.addi run "opn.hops" o.Trips_noc.Opn.total_hops;
  Run.addi run "opn.contention_cycles" o.Trips_noc.Opn.contention_cycles;
  (r, m +. d)

let detail_op run exp ~traced p =
  Run.guard run p.bench (fun () ->
      Run.calibrate run;
      Span.with_ ~args:[ ("bench", Json.Str p.bench) ] "program" (fun () ->
          let t0 = Unix.gettimeofday () in
          let r, own =
            if traced then begin
              exec_standalone run p;
              let r, own = traced_core run p in
              sim_stats run r ~cycles:(float_of_int r.Core.timing.Core.cycles);
              (r, own)
            end
            else
              Span.measure "Trips_sim.Core.run" (fun () ->
                  Core.run p.program (Image.copy p.image) ~entry:"main" ~args:[])
          in
          Run.record run p.bench (Unix.gettimeofday () -. t0);
          Run.op run
            ~ok:(Expected.matches exp ~bench:p.bench "detail" (Expected.detail r))
            ("detail " ^ p.bench);
          own))

let sampled_op run exp ~traced p =
  Run.guard run p.bench (fun () ->
      Run.calibrate run;
      Span.with_ ~args:[ ("bench", Json.Str p.bench) ] "program" (fun () ->
          let t0 = Unix.gettimeofday () in
          if traced then exec_standalone run p;
          let (r, e), dt =
            Span.measure "Trips_sim.Sampled.run" (fun () ->
                Sampled.run p.program (Image.copy p.image) ~entry:"main" ~args:[])
          in
          Run.record run p.bench (Unix.gettimeofday () -. t0);
          if traced then begin
            Run.add run "sampled.run_s" dt;
            Run.addi run "sampled.measured_blocks" e.Sampled.es_measured_blocks;
            Run.addi run "sampled.total_blocks" e.Sampled.es_total_blocks;
            Run.addi run "sampled.intervals" e.Sampled.es_intervals;
            Run.addi run "sampled.full_fallbacks" (Bool.to_int e.Sampled.es_full);
            Run.addi run "sampled.programs" 1;
            (match Expected.int_field exp ~bench:p.bench "detail" "cycles" with
            | Some exact ->
              Run.add run "sampled.abs_error_pct"
                (100. *. Float.abs (e.Sampled.es_cycles -. float_of_int exact)
                /. float_of_int exact)
            | None -> ());
            sim_stats run r ~cycles:e.Sampled.es_cycles
          end;
          Run.op run
            ~ok:(Expected.matches exp ~bench:p.bench "sampled" (Expected.sampled r e))
            ("sampled " ^ p.bench);
          dt))

let run_workload run exp ~names ~op =
  Run.passes run (fun ~traced ->
      let progs = Run.setup run (fun () -> prepare names) in
      Run.timed_pass run ~traced (fun () ->
          Array.fold_left
            (fun own p -> own +. op run exp ~traced p)
            0. (Run.shuffled run progs)))

let detail run exp = run_workload run exp ~names:detail_set ~op:detail_op
let sampled run exp = run_workload run exp ~names:sampled_set ~op:sampled_op

(* Per-layer metrics of the traced passes (per pass, or ratios of sums). *)
let layers run =
  let g = Run.get run and pp = Run.per_pass run and ratio = Run.ratio in
  let exec = g "exec.run_s" and tb = g "core.time_block_s" in
  let core = g "core.make_sim_s" +. g "core.drive_s" in
  let sampled = g "sampled.run_s" in
  let sim = if sampled > 0. then sampled else core in
  [
    ("exec.run_s", pp "exec.run_s");
    ("exec.ns_per_block", 1e9 *. ratio exec (g "exec.blocks"));
    ("exec.insts", pp "exec.insts");
    ("exec.share_pct", 100. *. ratio exec sim);
    ("core.make_sim_s", pp "core.make_sim_s");
    ("core.time_block_s", pp "core.time_block_s");
    ("core.time_block_calls", pp "core.time_block_calls");
    ("core.ns_per_timed_block", 1e9 *. ratio tb (g "core.time_block_calls"));
    ("core.time_block_share_pct", 100. *. ratio tb core);
    ( "core.step_s",
      if core > 0. then pp "core.drive_s" -. pp "core.time_block_s" -. pp "exec.run_s"
      else 0. );
    ("opn.packets", pp "opn.packets");
    ("opn.hops", pp "opn.hops");
    ("opn.contention_cycles", pp "opn.contention_cycles");
    ("opn.ns_per_packet", 1e9 *. ratio tb (g "opn.packets"));
    ("cache.l1i_misses", pp "cache.l1i_misses");
    ("cache.l1d_misses", pp "cache.l1d_misses");
    ("cache.l2_misses", pp "cache.l2_misses");
    ("pred.mispredicts", pp "pred.mispredicts");
    ("lsq.load_flushes", pp "lsq.load_flushes");
    ("sim.cycles", pp "sim.cycles");
    ("sim.ipc", ratio (g "sim.executed") (g "sim.cycles"));
    ( "sampled.detail_frac",
      ratio (g "sampled.measured_blocks") (g "sampled.total_blocks") );
    ("sampled.intervals", pp "sampled.intervals");
    ("sampled.full_fallbacks", pp "sampled.full_fallbacks");
    ( "sampled.other_s",
      if sampled > 0. then pp "sampled.run_s" -. pp "exec.run_s"
      else 0. );
    ( "sampled.error_pct",
      ratio (g "sampled.abs_error_pct") (g "sampled.programs") );
  ]
