(* Sampled simulation: SMARTS-style systematic sampling over block
   instances ([11] in PAPERS.md applies the same methodology family to
   conventional superscalars).

   Execution is always complete and exact — [Exec] interprets every
   block, so architectural results, functional statistics and the block
   execution-count profile match a full run.  What is sampled is the
   *timing* model: block instances cycle through

     detail-warm    ([warm])     detailed model runs, measurement excluded
     detail-measure ([measure])  detailed model runs, cycles-per-block kept
     fast-forward   (the rest)   functional warming only, clock frozen

   per [period] blocks.  During fast-forward the block predictor and all
   three caches keep being trained/touched (state warming), so each
   measurement interval sees realistic microarchitectural state after a
   short re-warm of the frozen clock-dependent structures (operand
   network occupancy, in-flight window, register-availability times).

   The estimate is the classic systematic-sampling one: mean measured
   cycles-per-block scaled by the total block count, with a Student-t
   95% confidence interval from the variance across intervals.  Runs
   too short to produce enough intervals fall back to full detailed
   simulation (exact, CI 0). *)

module Image = Trips_tir.Image
module Block = Trips_edge.Block
module Exec = Trips_edge.Exec
module Blockpred = Trips_predictor.Blockpred
module Cache = Trips_mem.Cache

let period = 1024        (* blocks per sampling period *)
let warm = 48            (* detailed blocks re-warming the clock state *)
let measure = 80         (* detailed blocks actually measured *)
let min_intervals = 24   (* fewer measured intervals -> full fallback *)

type estimate = {
  es_cycles : float;           (* estimated whole-run cycles *)
  es_ci95 : float;             (* +/- at 95% confidence *)
  es_intervals : int;          (* measurement intervals used *)
  es_measured_blocks : int;    (* block instances timed in detail *)
  es_total_blocks : int;       (* block instances executed *)
  es_cpb_mean : float;         (* mean measured cycles per block *)
  es_cpb_stddev : float;       (* across-interval standard deviation *)
  es_full : bool;              (* true: exact full simulation, CI 0 *)
}

(* Two-sided Student-t critical values at 95% for small df; 1.96 in the
   limit.  Indexed by df, capped. *)
let t95 df =
  let table =
    [| 12.706; 4.303; 3.182; 2.776; 2.571; 2.447; 2.365; 2.306; 2.262;
       2.228; 2.201; 2.179; 2.160; 2.145; 2.131; 2.120; 2.110; 2.101;
       2.093; 2.086; 2.080; 2.074; 2.069; 2.064; 2.060; 2.056; 2.052;
       2.048; 2.045; 2.042 |]
  in
  if df <= 0 then infinity
  else if df <= 30 then table.(df - 1)
  else if df <= 60 then 2.00
  else if df <= 120 then 1.98
  else 1.96

(* Functional warming of one block instance: exactly the cache touches
   and predictor training [Core.step_instance] performs, with every
   clock-coupled side effect omitted.  The shadow call stack is
   maintained too ([Core.resolve_exit]), or return prediction
   desynchronizes across fast-forward stretches. *)
let warm_instance (s : Core.sim) (plan : Core.plan) (inst : Exec.instance) =
  (* instruction lines *)
  let line = (Cache.config s.Core.l1i).Cache.line in
  let first = plan.Core.p_addr / line
  and last = (plan.Core.p_addr + plan.Core.p_bytes - 1) / line in
  for l = first to last do
    let a = l * line in
    if not (Cache.access s.Core.l1i ~addr:a ~write:false) then
      ignore (Cache.access s.Core.l2 ~addr:a ~write:false)
  done;
  (* data accesses *)
  List.iter
    (fun (ev : Exec.mem_event) ->
      if not ev.Exec.ev_null then begin
        let write = not ev.Exec.ev_is_load in
        if not (Cache.access s.Core.l1d ~addr:ev.Exec.ev_addr ~write) then
          ignore (Cache.access s.Core.l2 ~addr:ev.Exec.ev_addr ~write)
      end)
    inst.Exec.mem_events;
  ignore (Core.resolve_exit s plan inst);
  (* execution counts keep accumulating so the result's block profile
     carries exact instance counts (its latency and residency sums cover
     the detailed stretches only) *)
  plan.Core.p_obs.Core.bo_instances <- plan.Core.p_obs.Core.bo_instances + 1

let exact_estimate (r : Core.result) =
  {
    es_cycles = float_of_int r.Core.timing.Core.cycles;
    es_ci95 = 0.;
    es_intervals = 0;
    es_measured_blocks = r.Core.exec.Exec.blocks;
    es_total_blocks = r.Core.exec.Exec.blocks;
    es_cpb_mean =
      float_of_int r.Core.timing.Core.cycles
      /. float_of_int (max 1 r.Core.exec.Exec.blocks);
    es_cpb_stddev = 0.;
    es_full = true;
  }

let run ?config ?fuel (program : Block.program) image ~entry ~args =
  let image0 = Image.copy image in
  let s = Core.make_sim ?config program in
  let samples = ref [] in
  let n_blocks = ref 0 in
  let measured_blocks = ref 0 in
  let measure_c0 = ref 0 in
  let detail = warm + measure in
  let on_instance (inst : Exec.instance) =
    let plan = Hashtbl.find s.Core.plans inst.Exec.iblock.Block.label in
    let phase = !n_blocks mod period in
    if phase < detail then begin
      if phase = 0 && !n_blocks > 0 then
        (* re-enter the detailed model mid-run: continue the frozen clock
           smoothly, as if the previous block fetched at the freeze point
           and predicted correctly *)
        s.Core.prev <-
          Some
            {
              Core.p_fetch = s.Core.last_commit;
              p_resolve = s.Core.last_commit;
              p_correct = true;
              p_kind = Blockpred.Kjump;
            };
      if phase = warm then measure_c0 := s.Core.last_commit;
      Core.step_instance s ~time:Core.interp_time plan inst;
      if phase = detail - 1 then begin
        samples :=
          float_of_int (s.Core.last_commit - !measure_c0)
          /. float_of_int measure
          :: !samples;
        measured_blocks := !measured_blocks + measure
      end
    end
    else warm_instance s plan inst;
    incr n_blocks
  in
  let exec_result = Exec.run ?fuel ~on_instance program image ~entry ~args in
  let detailed = Core.collect_result s exec_result in
  let total = exec_result.Exec.stats.Exec.blocks in
  let n = List.length !samples in
  if total <= detail then
    (* the whole run fit inside the first detailed stretch: exact *)
    (detailed, exact_estimate detailed)
  else if n < min_intervals then begin
    (* too short to bound the error: fall back to full detailed *)
    let full = Core.run ?config ?fuel program image0 ~entry ~args in
    (full, exact_estimate full)
  end
  else begin
    let xs = !samples in
    let nf = float_of_int n in
    let mean = List.fold_left ( +. ) 0. xs /. nf in
    let var =
      List.fold_left (fun a x -> a +. ((x -. mean) *. (x -. mean))) 0. xs
      /. (nf -. 1.)
    in
    let sd = sqrt var in
    let totalf = float_of_int total in
    let est =
      {
        es_cycles = mean *. totalf;
        es_ci95 = t95 (n - 1) *. sd /. sqrt nf *. totalf;
        es_intervals = n;
        es_measured_blocks = !measured_blocks;
        es_total_blocks = total;
        es_cpb_mean = mean;
        es_cpb_stddev = sd;
        es_full = false;
      }
    in
    (detailed, est)
  end
