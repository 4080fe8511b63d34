(* Static timing analyzer tests.

   Known-answer tests hand-build small scheduled blocks (chain, diamond,
   predicate fan-out, fanout tree) where the weighted critical path can be
   derived on paper from the model: 16-wide dispatch one cycle after
   fetch, unit/multi-cycle ALU latencies from Isa.latency, Manhattan OPN
   hops between tiles, and a GT resolve leg for branches.

   The property test generates random unpredicated single-block ALU
   programs and checks the analyzer's whole-program prediction is a lower
   bound on the cycle-level simulator — the analyzer models the optimistic
   core of the simulator (no contention, no ET serialization, no cache
   misses), so on blocks where every instruction fires it can never
   predict more cycles than the simulator measures. *)

open Trips_tir
open Trips_edge
open Trips_analysis
module Xv = Trips_harness.Timing_xv
module Core = Trips_sim.Core
module Timing = Trips_sim.Timing
module Registry = Trips_workloads.Registry

(* All known-answer blocks place every instruction on ET 0, tile (1,1):
   reads of low registers arrive from RT bank 0 at (0,1) over 1 hop,
   writes of low registers leave over 1 hop, branch resolution crosses
   2 hops to the GT at (0,0). *)
let place_all_on b et =
  b.Block.placement <- Array.make (Array.length b.Block.insts) et

let analyze ?(fname = "main") b = Timing.analyze_block ~fname b

let summary_of b = fst (analyze b)

let check_breakdown (s : Timing.summary) =
  let bk = s.Timing.s_breakdown in
  Alcotest.(check int)
    "breakdown sums to the critical path" s.Timing.s_crit
    (bk.Timing.bk_compute + bk.Timing.bk_route + bk.Timing.bk_memory
   + bk.Timing.bk_overhead)

(* -- chain ------------------------------------------------------------ *)

(* read r2 -> add -> add -> add -> add -> write r1, plus a return branch.
   Read arrives at dispatch_done(1) + 1 hop = 2; each add costs 1 cycle,
   0 hops; the write leg adds 1 hop: crit = 2 + 4 + 1 = 7.  The branch
   resolves at issue(1) + 1 + 2 hops = 4 < 7. *)
let chain_block () =
  let t = Builder.create "chain" in
  let r = Builder.read t 2 in
  let a1 = Builder.inst t (Isa.Bin Ast.Add) in
  Builder.arc t r a1 Isa.Op0;
  Builder.arc t r a1 Isa.Op1;
  let prev = ref a1 in
  for _ = 2 to 4 do
    let a = Builder.inst t (Isa.Bin Ast.Add) in
    Builder.arc t !prev a Isa.Op0;
    Builder.arc t !prev a Isa.Op1;
    prev := a
  done;
  Builder.write t 1 [ !prev ];
  ignore (Builder.inst t (Isa.Branch Isa.Xret));
  let b = Builder.finish t in
  place_all_on b 0;
  b

let test_chain () =
  let b = chain_block () in
  let s, ds = analyze b in
  Alcotest.(check int) "critical path" 7 s.Timing.s_crit;
  check_breakdown s;
  let bk = s.Timing.s_breakdown in
  Alcotest.(check int) "compute = four adds" 4 bk.Timing.bk_compute;
  Alcotest.(check int) "route = read leg + write leg" 2 bk.Timing.bk_route;
  Alcotest.(check int) "no memory on the path" 0 bk.Timing.bk_memory;
  Alcotest.(check int) "overhead = dispatch" 1 bk.Timing.bk_overhead;
  Alcotest.(check (list string)) "no findings" []
    (List.map (fun (d : Diag.t) -> d.Diag.cls) ds);
  (* every chain node is on the critical path *)
  Array.iteri
    (fun i ins ->
      match ins.Isa.op with
      | Isa.Bin _ -> Alcotest.(check int) "chain slack" 0 s.Timing.s_slack.(i)
      | _ -> ())
    b.Block.insts

(* -- diamond ---------------------------------------------------------- *)

(* a feeds both a neg (1 cycle) and an itof (4 cycles) which join in a
   final add: the itof side is critical.  a completes at 3; neg at 4,
   itof at 7; join at 8; write lands at 9.  (Unary middle ops keep every
   producer at <= 2 targets so the builder inserts no fanout movs.) *)
let test_diamond () =
  let t = Builder.create "diamond" in
  let r = Builder.read t 2 in
  let a = Builder.inst t (Isa.Bin Ast.Add) in
  Builder.arc t r a Isa.Op0;
  Builder.arc t r a Isa.Op1;
  let fast = Builder.inst t (Isa.Un Ast.Neg) in
  Builder.arc t a fast Isa.Op0;
  let slow = Builder.inst t (Isa.Un Ast.Itof) in
  Builder.arc t a slow Isa.Op0;
  let join = Builder.inst t (Isa.Bin Ast.Add) in
  Builder.arc t fast join Isa.Op0;
  Builder.arc t slow join Isa.Op1;
  Builder.write t 1 [ join ];
  ignore (Builder.inst t (Isa.Branch Isa.Xret));
  let b = Builder.finish t in
  place_all_on b 0;
  let s, _ = analyze b in
  Alcotest.(check int) "critical path" 9 s.Timing.s_crit;
  check_breakdown s;
  let index_of op =
    let found = ref (-1) in
    Array.iteri
      (fun i (ins : Isa.inst) -> if ins.Isa.op = op then found := i)
      b.Block.insts;
    !found
  in
  Alcotest.(check int) "itof completes at 7" 7
    s.Timing.s_completion.(index_of (Isa.Un Ast.Itof));
  Alcotest.(check int) "slow path is critical" 0
    s.Timing.s_slack.(index_of (Isa.Un Ast.Itof));
  Alcotest.(check int) "fast path has the latency gap" 3
    s.Timing.s_slack.(index_of (Isa.Un Ast.Neg))

(* -- predicate fan-out ------------------------------------------------ *)

(* A chain of movs each predicated on the previous one: predicate depth 4
   triggers the pred-chain finding. *)
let test_pred_chain () =
  let t = Builder.create "predchain" in
  let r = Builder.read t 2 in
  let m1 = Builder.inst t Isa.Mov in
  Builder.arc t r m1 Isa.Op0;
  let prev = ref m1 in
  for _ = 1 to 4 do
    let m = Builder.inst t ~pred:(!prev, true) Isa.Mov in
    Builder.arc t r m Isa.Op0;
    prev := m
  done;
  Builder.write t 1 [ !prev ];
  ignore (Builder.inst t (Isa.Branch Isa.Xret));
  let b = Builder.finish t in
  place_all_on b 0;
  let s, ds = analyze b in
  Alcotest.(check int) "predicate depth" 4 s.Timing.s_pred_depth;
  Alcotest.(check bool) "pred-chain finding" true
    (Analyzer.has_class "pred-chain" ds);
  Alcotest.(check bool) "warnings only" true
    (List.for_all (fun (d : Diag.t) -> d.Diag.sev <> Diag.Error) ds)

(* -- fanout tree ------------------------------------------------------ *)

(* A hand-built balanced mov tree: root add -> 2 movs -> 4 movs -> 8
   writes.  Root completes at 3, mov levels at 4 and 5, writes land at 6.
   Every tree path is symmetric, so all tree nodes have zero slack. *)
let test_fanout_tree () =
  let t = Builder.create "tree" in
  let r = Builder.read t 2 in
  let root = Builder.inst t (Isa.Bin Ast.Add) in
  Builder.arc t r root Isa.Op0;
  Builder.arc t r root Isa.Op1;
  let level1 =
    List.init 2 (fun _ ->
        let m = Builder.inst t Isa.Mov in
        Builder.arc t root m Isa.Op0;
        m)
  in
  let level2 =
    List.concat_map
      (fun p ->
        List.init 2 (fun _ ->
            let m = Builder.inst t Isa.Mov in
            Builder.arc t p m Isa.Op0;
            m))
      level1
  in
  List.iteri
    (fun k m ->
      Builder.write t (10 + (2 * k)) [ m ];
      Builder.write t (11 + (2 * k)) [ m ])
    level2;
  ignore (Builder.inst t (Isa.Branch Isa.Xret));
  let b = Builder.finish t in
  place_all_on b 0;
  let s, _ = analyze b in
  Alcotest.(check int) "critical path" 6 s.Timing.s_crit;
  check_breakdown s;
  Array.iteri
    (fun i (ins : Isa.inst) ->
      match ins.Isa.op with
      | Isa.Bin _ | Isa.Mov ->
        Alcotest.(check int) "tree slack" 0 s.Timing.s_slack.(i)
      | _ -> ())
    b.Block.insts

(* -- placement diagnostics -------------------------------------------- *)

(* Same chain, but the consumer of every hop sits across the mesh: the
   producer-consumer legs reach 6 hops and land on the critical path. *)
let test_route_critical () =
  let b = chain_block () in
  (* alternate corners: ET 0 is (1,1), ET 15 is (4,4) -> 6 hops *)
  b.Block.placement <-
    Array.mapi (fun i _ -> if i mod 2 = 0 then 0 else 15) b.Block.placement;
  let _, ds = analyze b in
  Alcotest.(check bool) "route-critical finding" true
    (Analyzer.has_class "route-critical" ds)

let test_et_hotspot () =
  (* ten independent adds all placed on one tile *)
  let t = Builder.create "hotspot" in
  let r = Builder.read t 2 in
  for k = 0 to 9 do
    let a = Builder.inst t (Isa.Bin Ast.Add) in
    Builder.arc t r a Isa.Op0;
    Builder.arc t r a Isa.Op1;
    Builder.write t (10 + k) [ a ]
  done;
  ignore (Builder.inst t (Isa.Branch Isa.Xret));
  let b = Builder.finish t in
  place_all_on b 0;
  let s, ds = analyze b in
  Alcotest.(check bool) "et-hotspot finding" true
    (Analyzer.has_class "et-hotspot" ds);
  Alcotest.(check int) "tile load counts every instruction"
    (Array.length b.Block.insts)
    s.Timing.s_tile_load.(0)

(* -- diag pass field --------------------------------------------------- *)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let test_diag_pass_json () =
  let b = chain_block () in
  let _, ds = Timing.analyze_block ~fname:"main" { b with Block.placement = [||] } in
  Alcotest.(check bool) "skipped diag present" true
    (Analyzer.has_class "timing-skipped" ds);
  List.iter
    (fun d ->
      Alcotest.(check string) "pass field" "timing" d.Diag.pass;
      let json = Trips_util.Json.to_string (Diag.to_json d) in
      Alcotest.(check bool) "json carries pass" true
        (contains json "\"pass\": \"timing\""))
    ds;
  (* the other passes stamp their own names *)
  let structural = Structure.check ~fname:"main" b in
  List.iter
    (fun (d : Diag.t) ->
      Alcotest.(check string) "structure pass" "structure" d.Diag.pass)
    structural

(* -- property: prediction is a lower bound on the simulator ------------ *)

let gen_block_program =
  QCheck.Gen.(
    let* n_ops = int_range 3 40 in
    let* seeds = list_size (return n_ops) (int_bound 1_000_000) in
    let* use_mul = bool in
    return (n_ops, seeds, use_mul))

let build_random_program (_n_ops, seeds, use_mul) : Block.program =
  let t = Builder.create "main.entry" in
  let r2 = Builder.read t 2 in
  let r3 = Builder.read t 3 in
  let producers = ref [| r2; r3 |] in
  List.iteri
    (fun idx seed ->
      let pool = !producers in
      let np = Array.length pool in
      let pick k = pool.(k mod np) in
      let op =
        match (seed + idx) mod (if use_mul then 4 else 3) with
        | 0 -> Isa.Bin Ast.Add
        | 1 -> Isa.Bin Ast.Xor
        | 2 -> Isa.Bin Ast.Sub
        | _ -> Isa.Bin Ast.Mul
      in
      let a = Builder.inst t op in
      Builder.arc t (pick seed) a Isa.Op0;
      Builder.arc t (pick (seed / 7)) a Isa.Op1;
      producers := Array.append pool [| a |])
    seeds;
  let pool = !producers in
  Builder.write t 1 [ pool.(Array.length pool - 1) ];
  ignore (Builder.inst t (Isa.Branch Isa.Xret));
  let b = Builder.finish t in
  {
    Block.globals = [];
    funcs = [ { Block.fname = "main"; entry = "main.entry"; blocks = [ b ] } ];
  }

let prop_lower_bound =
  QCheck.Test.make ~count:60 ~name:"static prediction <= simulated cycles"
    (QCheck.make gen_block_program)
    (fun case ->
      let prog = build_random_program case in
      let image = Image.build [] in
      let predicted =
        (Timing.predict_program prog image ~entry:"main" ~args:[]).Timing.pr_cycles
      in
      let r = Core.run prog image ~entry:"main" ~args:[] in
      let measured = r.Core.timing.Core.cycles in
      if predicted > measured then
        QCheck.Test.fail_reportf "predicted %d > measured %d" predicted measured
      else true)

(* The same bound must hold with the compiler's real placement on a
   scheduled multi-instruction block (deterministic spot check). *)
let test_lower_bound_scheduled () =
  let prog = build_random_program (30, List.init 30 (fun i -> (i * 37) + 11), true) in
  Trips_compiler.Schedule.place_program prog;
  let image = Image.build [] in
  let predicted =
    (Timing.predict_program prog image ~entry:"main" ~args:[]).Timing.pr_cycles
  in
  let r = Core.run prog image ~entry:"main" ~args:[] in
  Alcotest.(check bool) "predicted <= measured" true
    (predicted <= r.Core.timing.Core.cycles)

(* -- composition state ------------------------------------------------- *)

(* Stepping the same summary twice with correct prediction pipelines the
   fetches: the second block's commit lands fetch_interval later, not a
   full block latency later. *)
let test_composition_pipelining () =
  let b = chain_block () in
  let s = summary_of b in
  let st1 = Timing.create Core.prototype in
  Timing.step st1 s ~exit_idx:0 ~prev_correct:true;
  let one = Timing.cycles st1 in
  Timing.step st1 s ~exit_idx:0 ~prev_correct:true;
  let two = Timing.cycles st1 in
  Alcotest.(check int) "pipelined second block"
    (one + Core.prototype.Core.fetch_interval)
    two;
  (* a misprediction costs the redirect penalty from resolution *)
  let st2 = Timing.create Core.prototype in
  Timing.step st2 s ~exit_idx:0 ~prev_correct:true;
  Timing.step st2 s ~exit_idx:0 ~prev_correct:false;
  Alcotest.(check bool) "redirect is slower" true
    (Timing.cycles st2 > two);
  Alcotest.(check int) "mispredict counted" 1 (Timing.mispredicts st2)


(* -- replayed predictor equals Core's ----------------------------------- *)

(* The composition driver replays the next-block predictor with its own
   copy of Core.run's label interning, shadow stack and update sequence,
   so redirects land on exactly the instances the simulator mispredicts.
   Pin the two together on workloads with many call/return exits. *)
let test_predictor_replay name () =
  let b = Registry.find name in
  let p = Xv.predict Trips_harness.Platforms.C b in
  let t = (Trips_harness.Platforms.trips Trips_harness.Platforms.C b).Core.timing in
  Alcotest.(check int) "mispredicts"
    (t.Core.branch_mispredicts + t.Core.callret_mispredicts)
    p.Timing.pr_mispredicts;
  Alcotest.(check int) "blocks" t.Core.blocks p.Timing.pr_blocks

(* -- golden: whole-program predictions ----------------------------------- *)

(* The analyzer's whole-program prediction per workload at preset C,
   pinned to test/timing_golden.ml: predicted cycles, composed block
   instances, replayed-predictor redirects and the finding count.  Any
   refactor of the analyzer or its composition driver must leave all four
   unchanged. *)
let golden_fast = [ "fft"; "ct"; "a2time"; "canrdr"; "rspeed"; "vortex" ]

let timing =
  Golden.table ~name:"timing" ~fixture:Timing_golden.timing ~key:Fun.id
    ~fast:(fun name -> List.mem name golden_fast)
    ~row:(fun name ->
      let p = Xv.predict Trips_harness.Platforms.C (Registry.find name) in
      Printf.sprintf "pr_cycles=%d pr_blocks=%d pr_mispredicts=%d findings=%d"
        p.Timing.pr_cycles p.Timing.pr_blocks p.Timing.pr_mispredicts
        (List.length p.Timing.pr_diags))
    (List.map (fun (b : Registry.bench) -> b.Registry.name) Registry.all)

let () =
  Golden.run "static_timing"
    ~fixtures:
      [
        Golden.file "timing_golden.ml"
          ~about:
            [ "Static timing predictions per workload at preset C";
              "(test_static_timing.ml)." ]
          [ timing ];
      ]
    [
      ( "known-answer",
        [
          Alcotest.test_case "chain" `Quick test_chain;
          Alcotest.test_case "diamond" `Quick test_diamond;
          Alcotest.test_case "pred-chain" `Quick test_pred_chain;
          Alcotest.test_case "fanout-tree" `Quick test_fanout_tree;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "route-critical" `Quick test_route_critical;
          Alcotest.test_case "et-hotspot" `Quick test_et_hotspot;
          Alcotest.test_case "diag-pass-json" `Quick test_diag_pass_json;
        ] );
      ( "model",
        [
          Alcotest.test_case "composition-pipelining" `Quick
            test_composition_pipelining;
          Alcotest.test_case "lower-bound-scheduled" `Quick
            test_lower_bound_scheduled;
        ] );
      ( "property",
        [ QCheck_alcotest.to_alcotest prop_lower_bound ] );
      ( "pred-replay",
        List.map
          (fun name ->
            Alcotest.test_case name `Quick (test_predictor_replay name))
          [ "a2time"; "canrdr"; "rspeed" ] );
      ("pred-golden", Golden.cases timing);
    ]
