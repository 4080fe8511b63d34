(* Golden-parity suite for the optimized cycle simulator.

   The optimized [Core] must reproduce the seed simulator's statistics
   bit-for-bit: the rewrite is a performance refactor, not a model change.
   Two layers of defense:

   - golden: every workload's (cycles, blocks, branch_mispredicts,
     callret_mispredicts, dcache_misses, load_flushes) must equal the
     committed fixture [Sim_golden.per_workload], recorded from the seed.
   - differential: on a few workloads, run [Core] and the frozen
     [Core_ref] side by side and compare the *complete* timing record
     plus the operand-network profile, catching drift in fields the
     fixture does not pin.

   The default run checks a fast subset (a few seconds); set
   TRIPS_PARITY_FULL=1 to sweep all registered workloads (the CI battery
   does). *)

module Registry = Trips_workloads.Registry
module Platforms = Trips_harness.Platforms
module Image = Trips_tir.Image
module Exec = Trips_edge.Exec
module Core = Trips_sim.Core
module Core_ref = Trips_sim.Core_ref
module Sampled = Trips_sim.Sampled

let full = Sys.getenv_opt "TRIPS_PARITY_FULL" <> None

(* Small, fast workloads that still cover the interesting stat columns:
   dcache misses (ct, pktflow), branch mispredicts (a2time, tblook),
   call/ret mispredicts (8b10b, vortex), float code (fft, wupwise). *)
let fast_subset =
  [ "ct"; "conv"; "vadd"; "basefp"; "fft"; "aifftr"; "tblook"; "a2time";
    "pktflow"; "wupwise"; "8b10b"; "vortex" ]

let golden_rows () =
  if full then Sim_golden.per_workload
  else
    List.filter
      (fun (name, _, _, _, _, _, _) -> List.mem name fast_subset)
      Sim_golden.per_workload

let compiled name =
  let b = Registry.find name in
  let prog = Platforms.edge_program Platforms.C b in
  let image = Image.build b.Registry.program.Trips_tir.Ast.globals in
  (prog, image)

let check_golden (name, cycles, blocks, bm, cm, dm, lf) () =
  let prog, image = compiled name in
  let r = Core.run prog image ~entry:"main" ~args:[] in
  let t = r.Core.timing in
  Alcotest.(check int) "cycles" cycles t.Core.cycles;
  Alcotest.(check int) "blocks" blocks t.Core.blocks;
  Alcotest.(check int) "branch_mispredicts" bm t.Core.branch_mispredicts;
  Alcotest.(check int) "callret_mispredicts" cm t.Core.callret_mispredicts;
  Alcotest.(check int) "dcache_misses" dm t.Core.dcache_misses;
  Alcotest.(check int) "load_flushes" lf t.Core.load_flushes

(* Field-by-field comparison against the frozen reference simulator.
   Each run gets a fresh image: execution mutates program memory. *)
let check_differential name () =
  let b = Registry.find name in
  let prog = Platforms.edge_program Platforms.C b in
  let fresh_image () = Image.build b.Registry.program.Trips_tir.Ast.globals in
  let o = Core.run prog (fresh_image ()) ~entry:"main" ~args:[] in
  let r = Core_ref.run prog (fresh_image ()) ~entry:"main" ~args:[] in
  let ot = o.Core.timing and rt = r.Core_ref.timing in
  let ck what a b = Alcotest.(check int) what a b in
  ck "cycles" rt.Core_ref.cycles ot.Core.cycles;
  ck "blocks" rt.Core_ref.blocks ot.Core.blocks;
  ck "branch_mispredicts" rt.Core_ref.branch_mispredicts ot.Core.branch_mispredicts;
  ck "callret_mispredicts" rt.Core_ref.callret_mispredicts
    ot.Core.callret_mispredicts;
  ck "load_flushes" rt.Core_ref.load_flushes ot.Core.load_flushes;
  ck "icache_misses" rt.Core_ref.icache_misses ot.Core.icache_misses;
  ck "dcache_misses" rt.Core_ref.dcache_misses ot.Core.dcache_misses;
  ck "l2_misses" rt.Core_ref.l2_misses ot.Core.l2_misses;
  ck "peak_occupancy" rt.Core_ref.peak_occupancy ot.Core.peak_occupancy;
  ck "l1d_bytes" rt.Core_ref.l1d_bytes ot.Core.l1d_bytes;
  ck "l2_bytes" rt.Core_ref.l2_bytes ot.Core.l2_bytes;
  ck "dram_bytes" rt.Core_ref.dram_bytes ot.Core.dram_bytes;
  Alcotest.(check (float 1e-9)) "occupancy_weighted"
    rt.Core_ref.occupancy_weighted ot.Core.occupancy_weighted;
  Alcotest.(check (float 1e-9)) "occupancy_useful" rt.Core_ref.occupancy_useful
    ot.Core.occupancy_useful;
  let op = o.Core.opn and rp = r.Core_ref.opn in
  ck "opn_packets" rp.Trips_noc.Opn.total_packets op.Trips_noc.Opn.total_packets;
  ck "opn_hops" rp.Trips_noc.Opn.total_hops op.Trips_noc.Opn.total_hops;
  ck "opn_contention" rp.Trips_noc.Opn.contention_cycles
    op.Trips_noc.Opn.contention_cycles;
  (* per-block profiles must agree label by label *)
  let obs =
    List.map (fun (l, (b : Core.block_obs)) ->
        (l, b.Core.bo_instances, b.Core.bo_latency, b.Core.bo_residency))
  in
  let robs =
    List.map (fun (l, (b : Core_ref.block_obs)) ->
        ( l, b.Core_ref.bo_instances, b.Core_ref.bo_latency,
          b.Core_ref.bo_residency ))
  in
  Alcotest.(check bool) "block_profile" true
    (obs o.Core.block_profile = robs r.Core_ref.block_profile)

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
   test/sampled_golden.ml.  Floats are stored as hex literals, so a
   change in any bit of the estimate or its interval fails.  The default
   run checks a subset with both full-detail fallbacks (fft, ct, tblook)
   and sampled runs (gzip, crafty); TRIPS_SAMPLED_GOLDEN_FULL=1 checks
   every workload. *)
let sampled_row name =
  let b = Registry.find name in
  let prog = Platforms.edge_program Platforms.C b in
  let image = Image.build b.Registry.program.Trips_tir.Ast.globals in
  let _, e = Sampled.run prog image ~entry:"main" ~args:[] in
  e

(* TRIPS_SAMPLED_GOLDEN_RECORD=FILE rewrites the fixture from the current
   estimator instead of testing: only for an intended model change. *)
let record_sampled_golden path =
  let oc = open_out path in
  output_string oc
    "(* Sampled.run estimates per workload at preset C (see the\n\
    \   sampled_golden suite in test_sim_parity.ml).  Regenerate only if\n\
    \   the estimator or the model is meant to change:\n\
    \   TRIPS_SAMPLED_GOLDEN_RECORD=test/sampled_golden.ml\n\
    \   dune exec test/test_sim_parity.exe *)\n\n\
     (* name, es_cycles, es_ci95, es_intervals, es_measured_blocks,\n\
    \   es_total_blocks, es_full *)\n\
     let per_workload = [\n";
  List.iter
    (fun (b : Registry.bench) ->
      let e = sampled_row b.Registry.name in
      Printf.fprintf oc "  (%S, %h, %h, %d, %d, %d, %b);\n" b.Registry.name
        e.Sampled.es_cycles e.Sampled.es_ci95 e.Sampled.es_intervals
        e.Sampled.es_measured_blocks e.Sampled.es_total_blocks
        e.Sampled.es_full)
    Registry.all;
  output_string oc "]\n";
  close_out oc

let sampled_fast = [ "fft"; "ct"; "tblook"; "gzip"; "crafty" ]

let sampled_golden_rows () =
  if Sys.getenv_opt "TRIPS_SAMPLED_GOLDEN_FULL" <> None then
    Sampled_golden.per_workload
  else
    List.filter
      (fun (name, _, _, _, _, _, _) -> List.mem name sampled_fast)
      Sampled_golden.per_workload

let check_sampled_golden (name, cycles, ci95, intervals, measured, total, full)
    () =
  let e = sampled_row name in
  Alcotest.(check (float 0.)) "es_cycles" cycles e.Sampled.es_cycles;
  Alcotest.(check (float 0.)) "es_ci95" ci95 e.Sampled.es_ci95;
  Alcotest.(check int) "es_intervals" intervals e.Sampled.es_intervals;
  Alcotest.(check int) "es_measured_blocks" measured
    e.Sampled.es_measured_blocks;
  Alcotest.(check int) "es_total_blocks" total e.Sampled.es_total_blocks;
  Alcotest.(check bool) "es_full" full e.Sampled.es_full

let () =
  (match Sys.getenv_opt "TRIPS_SAMPLED_GOLDEN_RECORD" with
  | Some path ->
    record_sampled_golden path;
    exit 0
  | None -> ());
  Alcotest.run "sim_parity"
    [
      ( "golden",
        List.map
          (fun ((name, _, _, _, _, _, _) as row) ->
            Alcotest.test_case name `Quick (check_golden row))
          (golden_rows ()) );
      ( "differential",
        List.map
          (fun name -> Alcotest.test_case name `Quick (check_differential name))
          [ "fft"; "basefp"; "pktflow"; "vortex" ] );
      ( "sampled",
        List.map
          (fun name -> Alcotest.test_case name `Quick (check_sampled name))
          [ "fft"; "ct"; "tblook" ] );
      ( "sampled_golden",
        List.map
          (fun ((name, _, _, _, _, _, _) as row) ->
            Alcotest.test_case name `Quick (check_sampled_golden row))
          (sampled_golden_rows ()) );
    ]
