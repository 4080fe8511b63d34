(* The compile workload: for each program, [Driver.compile] at C and then
   [Driver.validate] at C (translation validation of every pass).  No
   simulation runs, so a compiler or validator change shows here and in
   the simulation workloads' set-up, and nowhere else.

   The programs span the compile-cost range of the registry (a few ms to
   about 0.6 s of compile plus validate each); 8b10b, which alone takes
   about 15 s, is left out so one pass stays near 4 s on a 2-core Xeon. *)

module Registry = Trips_workloads.Registry
module Driver = Trips_compiler.Driver
module Absint = Trips_analysis.Absint
module Json = Trips_util.Json

let compile_set =
  [ "802.11a"; "rspeed"; "bitmnp"; "matrix01"; "canrdr"; "matrix"; "pktflow";
    "text"; "dither"; "tblook"; "perlbmk"; "mcf"; "crafty"; "parser"; "fft";
    "ct"; "a2time"; "gzip"; "equake"; "applu" ]

type prog = { bench : string; ast : Trips_tir.Ast.program }

(* The inputs as a compiler receives them from outside: each program as
   TIR JSON text, in the exact codec the fuzz corpus uses. *)
let sources =
  lazy
    (List.map
       (fun name ->
         ( name,
           Json.to_string
             (Trips_fuzz.Corpus.jprogram (Registry.find name).Registry.program) ))
       compile_set)

(* Set-up reads the inputs: parse and decode every program. *)
let prepare () =
  Array.of_list
    (List.map
       (fun (name, text) ->
         match Json.parse text with
         | Ok j -> { bench = name; ast = Trips_fuzz.Corpus.of_jprogram j }
         | Error e -> failwith (name ^ ": " ^ e))
       (Lazy.force sources))

let compile_op run exp ~traced p =
  Run.guard run p.bench (fun () ->
      Run.calibrate run;
      Span.with_ ~args:[ ("bench", Json.Str p.bench) ] "program" (fun () ->
          let t0 = Unix.gettimeofday () in
          if traced then begin
            let cfg, fe =
              Span.measure "Trips_compiler.Driver.front_end" (fun () ->
                  Driver.front_end Driver.compiled p.ast)
            in
            let _, ai =
              Span.measure "Trips_analysis.Absint.analyze" (fun () -> Absint.analyze cfg)
            in
            Run.add run "driver.front_end_s" fe;
            Run.add run "absint.analyze_s" ai
          end;
          let t1 = Unix.gettimeofday () in
          let (prog, gs), c =
            Span.measure "Trips_compiler.Driver.compile" (fun () ->
                Driver.compile_stats Driver.compiled p.ast)
          in
          let (reports, vprog), v =
            Span.measure "Trips_compiler.Driver.validate" (fun () ->
                Driver.validate Driver.compiled p.ast)
          in
          let own = Unix.gettimeofday () -. t1 in
          Run.record run p.bench (Unix.gettimeofday () -. t0);
          if traced then begin
            Run.add run "driver.compile_s" c;
            Run.add run "driver.validate_s" v;
            Run.addi run "driver.blocks" (Expected.edge_blocks prog);
            Run.addi run "driver.global_hits"
              Driver.(gs.gs_consts + gs.gs_branches + gs.gs_rles + gs.gs_dses
                      + gs.gs_relaxed);
            let s = Trips_analysis.Transval.summarize reports in
            Run.addi run "transval.proved" s.Trips_analysis.Transval.n_proved;
            Run.addi run "transval.refuted" s.Trips_analysis.Transval.n_refuted
          end;
          Run.op run
            ~ok:
              (Expected.matches exp ~bench:p.bench "compile" (Expected.compile prog)
              && Expected.matches exp ~bench:p.bench "compile" (Expected.compile vprog)
              && Expected.matches exp ~bench:p.bench "transval"
                   (Expected.transval reports))
            ("compile " ^ p.bench);
          own))

let run run exp =
  ignore (Lazy.force sources);
  Run.passes run (fun ~traced ->
      let progs = Run.setup run prepare in
      Run.timed_pass run ~traced (fun () ->
          let owns = Array.map (compile_op run exp ~traced) (Run.shuffled run progs) in
          let total = Array.fold_left ( +. ) 0. owns in
          if traced then
            Run.add run "driver.top_program_share"
              (Run.ratio (Array.fold_left Float.max 0. owns) total);
          total))

let layers run =
  let pp = Run.per_pass run in
  [
    ("driver.front_end_s", pp "driver.front_end_s");
    ("absint.analyze_s", pp "absint.analyze_s");
    ( "driver.backend_s",
      pp "driver.compile_s" -. pp "driver.front_end_s" -. pp "absint.analyze_s" );
    ("transval.extra_s", pp "driver.validate_s" -. pp "driver.compile_s");
    ("driver.blocks", pp "driver.blocks");
    ("driver.global_hits", pp "driver.global_hits");
    ("transval.proved", pp "transval.proved");
    ("transval.refuted", pp "transval.refuted");
    ("driver.top_program_share", pp "driver.top_program_share");
  ]
