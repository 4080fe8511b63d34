(* Tests for the timing models: the TRIPS cycle simulator, the ideal-EDGE
   limit machine and the superscalar reference models.  Timing models have
   no golden cycle counts, so these tests check invariants: correctness of
   the architectural result, determinism, and the orderings the models
   exist to expose (ideal >= hardware, bigger window helps, weaker
   reference machines are slower). *)

open Trips_tir
open Trips_workloads
open Trips_harness
module Core = Trips_sim.Core
module Ideal = Trips_limit.Ideal
module Ooo = Trips_superscalar.Ooo

let fft = Registry.find "fft"
let a2time = Registry.find "a2time"

let test_cycle_sim_correct_result () =
  List.iter
    (fun name ->
      let b = Registry.find name in
      let golden, _ = Registry.golden b in
      let r = Platforms.trips Platforms.C b in
      Alcotest.(check bool) (name ^ " result matches golden") true (r.Core.ret = golden))
    [ "fft"; "a2time"; "vadd"; "mcf" ]

let test_cycle_sim_deterministic () =
  let prog = Platforms.edge_program Platforms.C fft in
  let run () =
    let image = Image.build fft.Registry.program.Ast.globals in
    (Core.run prog image ~entry:"main" ~args:[]).Core.timing.Core.cycles
  in
  Alcotest.(check int) "same cycles twice" (run ()) (run ())

let test_cycles_exceed_ideal_bound () =
  (* a 16-wide machine cannot beat (executed / 16) cycles *)
  let r = Platforms.trips Platforms.C fft in
  Alcotest.(check bool) "IPC <= 16" true (Core.ipc r <= 16.0);
  Alcotest.(check bool) "cycles positive" true (r.Core.timing.Core.cycles > 0)

let test_ideal_at_least_hardware () =
  List.iter
    (fun name ->
      let b = Registry.find name in
      let hw = Core.ipc (Platforms.trips Platforms.C b) in
      let ideal = Ideal.ipc (Platforms.ideal Ideal.trips_window Platforms.C b) in
      Alcotest.(check bool)
        (Printf.sprintf "%s ideal (%.2f) >= hardware (%.2f)" name ideal hw)
        true (ideal >= hw))
    [ "fft"; "conv"; "autocor" ]

let test_ideal_orderings () =
  (* removing dispatch cost can only help; growing the window can only help *)
  let b = Registry.find "conv" in
  let i1 = Ideal.ipc (Platforms.ideal Ideal.trips_window Platforms.C b) in
  let i0 = Ideal.ipc (Platforms.ideal Ideal.zero_dispatch Platforms.C b) in
  let ih = Ideal.ipc (Platforms.ideal Ideal.huge_window Platforms.C b) in
  Alcotest.(check bool) (Printf.sprintf "0-dispatch (%.1f) >= 1K (%.1f)" i0 i1) true (i0 >= i1);
  Alcotest.(check bool) (Printf.sprintf "128K (%.1f) >= 0-dispatch (%.1f)" ih i0) true
    (ih >= i0)

(* The memo is keyed by the whole configuration: two configurations
   asked for one bench each get their own run, whichever comes first. *)
let test_ideal_memo_per_config () =
  let b = Registry.find "ct" in
  let slow = { Ideal.trips_window with Ideal.load_latency = 6 } in
  let direct cfg =
    let prog = Platforms.edge_program Platforms.C b in
    let image = Image.build b.Registry.program.Ast.globals in
    (Ideal.run ~config:cfg prog image ~entry:"main" ~args:[]).Ideal.cycles
  in
  let memo cfg = (Platforms.ideal cfg Platforms.C b).Ideal.cycles in
  let fast_cycles = memo Ideal.trips_window and slow_cycles = memo slow in
  Alcotest.(check int) "trips_window" (direct Ideal.trips_window) fast_cycles;
  Alcotest.(check int) "load latency 6" (direct slow) slow_cycles;
  Alcotest.(check bool) "the two runs differ" true (fast_cycles <> slow_cycles)

let test_window_ablation () =
  (* shrinking the block window must not make the prototype faster *)
  let prog = Platforms.edge_program Platforms.C fft in
  let cycles window_blocks =
    let image = Image.build fft.Registry.program.Ast.globals in
    let config = { Core.prototype with Core.window_blocks } in
    (Core.run ~config prog image ~entry:"main" ~args:[]).Core.timing.Core.cycles
  in
  let c8 = cycles 8 and c2 = cycles 2 and c1 = cycles 1 in
  Alcotest.(check bool) (Printf.sprintf "2 blocks (%d) >= 8 blocks (%d)" c2 c8) true (c2 >= c8);
  Alcotest.(check bool) (Printf.sprintf "1 block (%d) >= 2 blocks (%d)" c1 c2) true (c1 >= c2)

let test_predictor_ablation () =
  (* a tiny next-block predictor must not beat the prototype's *)
  let prog = Platforms.edge_program Platforms.C a2time in
  let cycles predictor =
    let image = Image.build a2time.Registry.program.Ast.globals in
    let config = { Core.prototype with Core.predictor } in
    (Core.run ~config prog image ~entry:"main" ~args:[]).Core.timing.Core.cycles
  in
  let tiny =
    { Trips_predictor.Blockpred.exit_entries = 16; exit_hist_bits = 3;
      target = { Trips_predictor.Target.btb_entries = 16; ctb_entries = 4; ras_depth = 2 } }
  in
  let proto = cycles Core.prototype.Core.predictor in
  let small = cycles tiny in
  Alcotest.(check bool) (Printf.sprintf "tiny predictor (%d) >= prototype (%d)" small proto)
    true (small >= proto)

let test_superscalar_correct_and_ordered () =
  let b = Registry.find "autocor" in
  let golden, _ = Registry.golden b in
  let c2 = Platforms.super Ooo.core2 ~icc:false b in
  let p3 = Platforms.super Ooo.pentium3 ~icc:false b in
  (match (golden, b.Registry.ret) with
  | Some (Ty.Vi g), Some Ty.I64 ->
    Alcotest.(check int64) "core2 result" g c2.Ooo.ret_int
  | _ -> ());
  Alcotest.(check bool)
    (Printf.sprintf "P3 (%d) slower than Core2 (%d)" p3.Ooo.stats.Ooo.cycles
       c2.Ooo.stats.Ooo.cycles)
    true
    (p3.Ooo.stats.Ooo.cycles >= c2.Ooo.stats.Ooo.cycles)

let test_icc_not_slower () =
  let b = Registry.find "conv" in
  let gcc = Platforms.super Ooo.core2 ~icc:false b in
  let icc = Platforms.super Ooo.core2 ~icc:true b in
  Alcotest.(check bool)
    (Printf.sprintf "icc (%d) <= gcc (%d) * 1.1" icc.Ooo.stats.Ooo.cycles
       gcc.Ooo.stats.Ooo.cycles)
    true
    (float_of_int icc.Ooo.stats.Ooo.cycles
    <= 1.1 *. float_of_int gcc.Ooo.stats.Ooo.cycles)

let test_opn_occupancy_exact () =
  (* two messages on the same link in the same cycle: second waits 1 *)
  let opn = Trips_noc.Opn.create () in
  let t1 = Trips_noc.Opn.send opn ~src:(1, 1) ~dst:(1, 2) Trips_noc.Opn.Et_et ~now:10 in
  let t2 = Trips_noc.Opn.send opn ~src:(1, 1) ~dst:(1, 2) Trips_noc.Opn.Et_et ~now:10 in
  Alcotest.(check int) "first arrives next cycle" 11 t1;
  Alcotest.(check int) "second waits for the link" 12 t2;
  (* a message in a different cycle does not wait *)
  let t3 = Trips_noc.Opn.send opn ~src:(1, 1) ~dst:(1, 2) Trips_noc.Opn.Et_et ~now:20 in
  Alcotest.(check int) "disjoint time, no wait" 21 t3

let test_cache_hierarchy_sanity () =
  let h =
    Trips_mem.Hier.create ~l1:Trips_mem.Cache.trips_l1d
      ~l2:(Some Trips_mem.Cache.trips_l2) ~dram:Trips_mem.Hier.trips_dram
  in
  let miss_lat, hit1 = Trips_mem.Hier.access h ~addr:0x4000 ~write:false ~now:0 in
  let hit_lat, hit2 = Trips_mem.Hier.access h ~addr:0x4000 ~write:false ~now:100 in
  Alcotest.(check bool) "first is a miss" false hit1;
  Alcotest.(check bool) "second hits" true hit2;
  Alcotest.(check bool) "miss slower than hit" true (miss_lat > hit_lat)

(* The cache model before its lookup stopped allocating, kept verbatim
   as the oracle of [test_cache_equivalence]. *)
module Old_cache = struct
  open Trips_mem.Cache

  type t = {
    cfg : config;
    sets : int;
    tags : int array;            (* sets * assoc, -1 = invalid *)
    lru : int array;             (* timestamps *)
    st : stats;
    mutable tick : int;
  }

  let create cfg =
    let sets = cfg.size_kb * 1024 / cfg.line / cfg.assoc in
    assert (sets > 0);
    {
      cfg;
      sets;
      tags = Array.make (sets * cfg.assoc) (-1);
      lru = Array.make (sets * cfg.assoc) 0;
      st = { accesses = 0; misses = 0; evictions = 0 };
      tick = 0;
    }

  let line_of t addr = addr / t.cfg.line
  let set_of t addr = line_of t addr mod t.sets

  let find_way t addr =
    let s = set_of t addr in
    let tag = line_of t addr in
    let base = s * t.cfg.assoc in
    let rec go w =
      if w = t.cfg.assoc then None
      else if t.tags.(base + w) = tag then Some (base + w)
      else go (w + 1)
    in
    go 0

  let probe t ~addr = find_way t addr <> None

  let access t ~addr ~write =
    ignore write;
    t.tick <- t.tick + 1;
    t.st.accesses <- t.st.accesses + 1;
    match find_way t addr with
    | Some idx ->
      t.lru.(idx) <- t.tick;
      true
    | None ->
      t.st.misses <- t.st.misses + 1;
      let s = set_of t addr in
      let base = s * t.cfg.assoc in
      (* victim = least recently used way *)
      let victim = ref base in
      for w = 1 to t.cfg.assoc - 1 do
        if t.lru.(base + w) < t.lru.(!victim) then victim := base + w
      done;
      if t.tags.(!victim) >= 0 then t.st.evictions <- t.st.evictions + 1;
      t.tags.(!victim) <- line_of t addr;
      t.lru.(!victim) <- t.tick;
      false
end

(* Random access streams over the TRIPS and superscalar caches: every
   hit, the miss and eviction counts, and at the end which lines are
   resident (so every LRU victim) match the oracle.  Addresses span four
   times the capacity, half of them re-touching a recent line. *)
let test_cache_equivalence () =
  let module Cache = Trips_mem.Cache in
  let configs =
    [ Cache.trips_l1d; Cache.trips_l1i; Cache.trips_l2 ]
    @ List.concat_map
        (fun (c : Ooo.config) -> [ c.Ooo.l1d; c.Ooo.l1i ] @ Option.to_list c.Ooo.l2)
        [ Ooo.core2; Ooo.pentium4; Ooo.pentium3 ]
  in
  List.iteri
    (fun k (cfg : Cache.config) ->
      let rng = Random.State.make [| k |] in
      let c = Cache.create cfg and o = Old_cache.create cfg in
      let span = 4 * cfg.Cache.size_kb * 1024 in
      let recent = Array.make 64 0 in
      for i = 1 to 40_000 do
        let addr =
          if Random.State.bool rng then
            recent.(Random.State.int rng 64) + Random.State.int rng cfg.Cache.line
          else Random.State.int rng span
        in
        recent.(i land 63) <- addr;
        let write = Random.State.bool rng in
        Alcotest.(check bool)
          (Printf.sprintf "%s access %d hit" cfg.Cache.name i)
          (Old_cache.access o ~addr ~write)
          (Cache.access c ~addr ~write)
      done;
      let st = Cache.stats c in
      let what = cfg.Cache.name in
      Alcotest.(check int) (what ^ " accesses") o.Old_cache.st.Cache.accesses
        st.Cache.accesses;
      Alcotest.(check int) (what ^ " misses") o.Old_cache.st.Cache.misses st.Cache.misses;
      Alcotest.(check int) (what ^ " evictions") o.Old_cache.st.Cache.evictions
        st.Cache.evictions;
      Alcotest.(check bool) (what ^ " evicts") true (st.Cache.evictions > 0);
      let line = cfg.Cache.line in
      for l = 0 to (span / line) - 1 do
        if Old_cache.probe o ~addr:(l * line) <> Cache.probe c ~addr:(l * line) then
          Alcotest.failf "%s: line %d residency differs" what l
      done)
    configs

let () =
  Alcotest.run "timing"
    [
      ( "trips-sim",
        [
          Alcotest.test_case "correct results" `Quick test_cycle_sim_correct_result;
          Alcotest.test_case "deterministic" `Quick test_cycle_sim_deterministic;
          Alcotest.test_case "IPC bound" `Quick test_cycles_exceed_ideal_bound;
          Alcotest.test_case "window ablation" `Quick test_window_ablation;
          Alcotest.test_case "predictor ablation" `Quick test_predictor_ablation;
        ] );
      ( "limit",
        [
          Alcotest.test_case "ideal >= hardware" `Quick test_ideal_at_least_hardware;
          Alcotest.test_case "config orderings" `Quick test_ideal_orderings;
          Alcotest.test_case "memo per config" `Quick test_ideal_memo_per_config;
        ] );
      ( "superscalar",
        [
          Alcotest.test_case "correct + platform order" `Quick test_superscalar_correct_and_ordered;
          Alcotest.test_case "icc preset" `Quick test_icc_not_slower;
        ] );
      ( "substrate",
        [
          Alcotest.test_case "opn per-cycle links" `Quick test_opn_occupancy_exact;
          Alcotest.test_case "cache hierarchy" `Quick test_cache_hierarchy_sanity;
          Alcotest.test_case "cache lookup as before" `Quick test_cache_equivalence;
        ] );
    ]
