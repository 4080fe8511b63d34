(* Golden-parity suite for the optimized cycle simulator.

   The optimized [Core] must reproduce the seed simulator's statistics
   bit-for-bit: the rewrite is a performance refactor, not a model change.
   Two layers of defense:

   - golden: every workload's (cycles, blocks, branch_mispredicts,
     callret_mispredicts, dcache_misses, load_flushes) under [Core.run]
     must equal the committed fixture test/sim_golden.ml, recorded from
     the frozen [Core_ref].
   - differential: on a few workloads, run [Core] and the frozen
     [Core_ref] side by side and compare the *complete* timing record
     plus the operand-network profile, catching drift in fields the
     fixture does not pin.

   The default run checks a fast subset of each golden; TRIPS_GOLDEN_FULL
   checks every workload (see golden.ml). *)

module Registry = Trips_workloads.Registry
module Platforms = Trips_harness.Platforms
module Image = Trips_tir.Image
module Exec = Trips_edge.Exec
module Core = Trips_sim.Core
module Core_ref = Trips_sim.Core_ref
module Sampled = Trips_sim.Sampled

let names = List.map (fun (b : Registry.bench) -> b.Registry.name) Registry.all

let compiled name =
  let b = Registry.find name in
  let prog = Platforms.edge_program Platforms.C b in
  let image = Image.build b.Registry.program.Trips_tir.Ast.globals in
  (prog, image)

let sim_row run name =
  let prog, image = compiled name in
  let t = (run prog image : Core.result).Core.timing in
  Printf.sprintf
    "cycles=%d blocks=%d branch_mispredicts=%d callret_mispredicts=%d \
     dcache_misses=%d load_flushes=%d"
    t.Core.cycles t.Core.blocks t.Core.branch_mispredicts
    t.Core.callret_mispredicts t.Core.dcache_misses t.Core.load_flushes

(* Small, fast workloads that still cover the interesting stat columns:
   dcache misses (ct, pktflow), branch mispredicts (a2time, tblook),
   call/ret mispredicts (8b10b, vortex), float code (fft, wupwise). *)
let sim_fast =
  [ "ct"; "conv"; "vadd"; "basefp"; "fft"; "aifftr"; "tblook"; "a2time";
    "pktflow"; "wupwise"; "8b10b"; "vortex" ]

let sim =
  Golden.table ~name:"sim" ~fixture:Sim_golden.sim ~key:Fun.id
    ~fast:(fun name -> List.mem name sim_fast)
    ~row:(sim_row (fun p i -> Core.run p i ~entry:"main" ~args:[]))
    ~record:(sim_row (fun p i -> Core_ref.run p i ~entry:"main" ~args:[]))
    names

(* Whole-record comparison against the frozen reference simulator: the
   timing statistics, the operand-network profile and the per-block
   profile must all be identical.  Each run gets a fresh image: execution
   mutates program memory. *)
let check_differential name () =
  let b = Registry.find name in
  let prog = Platforms.edge_program Platforms.C b in
  let fresh_image () = Image.build b.Registry.program.Trips_tir.Ast.globals in
  let o = Core.run prog (fresh_image ()) ~entry:"main" ~args:[] in
  let r = Core_ref.run prog (fresh_image ()) ~entry:"main" ~args:[] in
  Alcotest.(check bool) "timing" true (o.Core.timing = r.Core.timing);
  Alcotest.(check bool) "opn" true (o.Core.opn = r.Core.opn);
  Alcotest.(check bool) "block_profile" true
    (o.Core.block_profile = r.Core.block_profile)

(* A label defined twice names its later block, in [Core] as in the
   reference: every function's blocks are listed twice, so the first
   copies shift the code layout but never run.  A simulator that
   resolved a label to its first definition would hand each successor
   the idle copy's predictor id. *)
let check_duplicate_labels () =
  let module Block = Trips_edge.Block in
  let b = Registry.find "vortex" in
  let prog = Platforms.edge_program Platforms.C b in
  let prog =
    {
      prog with
      Block.funcs =
        List.map
          (fun (f : Block.func) -> { f with Block.blocks = f.Block.blocks @ f.Block.blocks })
          prog.Block.funcs;
    }
  in
  let fresh_image () = Image.build b.Registry.program.Trips_tir.Ast.globals in
  let o = Core.run prog (fresh_image ()) ~entry:"main" ~args:[] in
  let r = Core_ref.run prog (fresh_image ()) ~entry:"main" ~args:[] in
  Alcotest.(check bool) "timing" true (o.Core.timing = r.Core.timing);
  Alcotest.(check bool) "opn" true (o.Core.opn = r.Core.opn);
  Alcotest.(check bool) "block_profile" true
    (o.Core.block_profile = r.Core.block_profile)

(* Sampled contract: execution stays exact (return value, block count);
   the cycle estimate either is exact (full-detail fallback) or carries
   the true count within its own 95% interval on these workloads. *)
let check_sampled name () =
  let b = Registry.find name in
  let prog = Platforms.edge_program Platforms.C b in
  let fresh_image () = Image.build b.Registry.program.Trips_tir.Ast.globals in
  let full = Core.run prog (fresh_image ()) ~entry:"main" ~args:[] in
  let detailed, est =
    Sampled.run prog (fresh_image ()) ~entry:"main" ~args:[]
  in
  Alcotest.(check bool) "same return value" true
    (detailed.Core.ret = full.Core.ret);
  Alcotest.(check int) "exact block count" full.Core.exec.Exec.blocks
    est.Sampled.es_total_blocks;
  let actual = float_of_int full.Core.timing.Core.cycles in
  if est.Sampled.es_full then
    Alcotest.(check (float 0.5)) "exact cycles on full fallback" actual
      est.Sampled.es_cycles
  else
    Alcotest.(check bool) "true cycles within the reported CI" true
      (Float.abs (est.Sampled.es_cycles -. actual) <= est.Sampled.es_ci95)

(* Sampled golden: the estimate of every workload at preset C, pinned to
   test/sampled_golden.ml.  Floats are printed in hex, so a change in any
   bit of the estimate or its interval fails.  The fast subset has both
   full-detail fallbacks (fft, ct, tblook) and sampled runs (gzip,
   crafty). *)
let sampled_fast = [ "fft"; "ct"; "tblook"; "gzip"; "crafty" ]

let sampled =
  Golden.table ~name:"sampled" ~fixture:Sampled_golden.sampled ~key:Fun.id
    ~fast:(fun name -> List.mem name sampled_fast)
    ~row:(fun name ->
      let prog, image = compiled name in
      let _, e = Sampled.run prog image ~entry:"main" ~args:[] in
      Printf.sprintf
        "es_cycles=%h es_ci95=%h es_intervals=%d es_measured_blocks=%d \
         es_total_blocks=%d es_full=%b"
        e.Sampled.es_cycles e.Sampled.es_ci95 e.Sampled.es_intervals
        e.Sampled.es_measured_blocks e.Sampled.es_total_blocks e.Sampled.es_full)
    names

let () =
  Golden.run "sim_parity"
    ~fixtures:
      [
        Golden.file "sim_golden.ml"
          ~about:
            [ "Core_ref.run statistics per workload at preset C, which the";
              "optimized Core.run must reproduce exactly (test_sim_parity.ml)." ]
          [ sim ];
        Golden.file "sampled_golden.ml"
          ~about:
            [ "Sampled.run estimates per workload at preset C";
              "(test_sim_parity.ml)." ]
          [ sampled ];
      ]
    [
      ("golden", Golden.cases sim);
      ( "differential",
        List.map
          (fun name -> Alcotest.test_case name `Quick (check_differential name))
          [ "fft"; "basefp"; "pktflow"; "vortex" ]
        @ [ Alcotest.test_case "duplicate labels" `Quick check_duplicate_labels ] );
      ( "sampled",
        List.map
          (fun name -> Alcotest.test_case name `Quick (check_sampled name))
          [ "fft"; "ct"; "tblook" ] );
      ("sampled_golden", Golden.cases sampled);
    ]
