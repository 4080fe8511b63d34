(* Cross-validation of the static timing analyzer against the
   cycle-level simulator.

   [Timing.predict_program] composes the analyzer's per-block max-plus
   summaries over the functional execution's block trace, replaying the
   next-block predictor so redirects land where the simulator
   mispredicts.  Everything else in the model is optimistic — no
   contention, no cache misses, no load flushes — so the prediction
   tracks the simulator from below. *)

module Registry = Trips_workloads.Registry
module Image = Trips_tir.Image
module Ast = Trips_tir.Ast
module Core = Trips_sim.Core
module Timing = Trips_sim.Timing
module Stats = Trips_util.Stats
module Table = Trips_util.Table
module Json = Trips_util.Json
module Diag = Trips_analysis.Diag
module Preset = Trips_workloads.Preset

(* At [Core.prototype], the configuration [Platforms.trips] simulates. *)
let predictions = Platforms.Memo.create ()

let predict (q : Platforms.quality) (b : Registry.bench) : Timing.prediction =
  Platforms.Memo.find_or_compute predictions (q, b.Registry.name)
    (fun () ->
      let prog = Platforms.edge_program q b in
      let image = Image.build b.Registry.program.Ast.globals in
      Timing.predict_program prog image ~entry:"main" ~args:[])

(* ------------------------------------------------------------------ *)
(* Per-benchmark comparison                                            *)
(* ------------------------------------------------------------------ *)

type measured = {
  xv_cycles : int;
  xv_error_pct : float;  (* signed, (pred - meas) / meas *)
  xv_mispredicts : int;
}

type program = {
  tp_bench : string;
  tp_prediction : Timing.prediction;
  tp_top : (string * int * Timing.summary) list;
  tp_measured : measured option;
}

type report = {
  tr_preset : Platforms.quality;
  tr_programs : program list;
  tr_fit : (float * float) option;
}

let measure q (b : Registry.bench) (p : Timing.prediction) =
  let t = (Platforms.trips q b).Core.timing in
  let m = t.Core.cycles in
  {
    xv_cycles = m;
    xv_error_pct =
      (if m = 0 then 0.
       else 100. *. float_of_int (p.Timing.pr_cycles - m) /. float_of_int m);
    xv_mispredicts = t.Core.branch_mispredicts + t.Core.callret_mispredicts;
  }

(* Pearson correlation and MAPE of predicted against measured cycles. *)
let fit programs =
  let predicted, actual =
    List.split
      (List.filter_map
         (fun p ->
           Option.map
             (fun m ->
               (float_of_int p.tp_prediction.Timing.pr_cycles,
                float_of_int m.xv_cycles))
             p.tp_measured)
         programs)
  in
  (Stats.pearson predicted actual, Stats.mape ~predicted ~actual)

(* The [top] blocks by dynamic contribution; never-executed blocks last. *)
let top_blocks top (p : Timing.prediction) =
  Hashtbl.fold
    (fun label (s : Timing.summary) acc ->
      let count =
        Option.value ~default:0 (Hashtbl.find_opt p.Timing.pr_counts label)
      in
      ( (count * Timing.predicted_block_cost Core.prototype s, s.Timing.s_crit),
        (label, count, s) )
      :: acc)
    p.Timing.pr_summaries []
  |> List.sort (fun (w1, _) (w2, _) -> compare w2 w1)
  |> List.filteri (fun i _ -> i < top)
  |> List.map snd

let report ~top ~xval q benches =
  let programs =
    List.map
      (fun (b : Registry.bench) ->
        let p = predict q b in
        {
          tp_bench = b.Registry.name;
          tp_prediction = p;
          tp_top = top_blocks top p;
          tp_measured = (if xval then Some (measure q b p) else None);
        })
      benches
  in
  {
    tr_preset = q;
    tr_programs = programs;
    tr_fit = (if xval then Some (fit programs) else None);
  }

let findings r =
  List.concat_map (fun p -> p.tp_prediction.Timing.pr_diags) r.tr_programs

let to_json r =
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
  let program_json p =
    let pr = p.tp_prediction in
    Json.Obj
      ([
         ("bench", Json.Str p.tp_bench);
         ("preset", Json.Str (Preset.name r.tr_preset));
         ("predicted_cycles", Json.Int pr.Timing.pr_cycles);
       ]
      @ (match p.tp_measured with
        | Some m ->
          ("measured_cycles", Json.Int m.xv_cycles)
          :: (if m.xv_cycles <> 0 then [ ("error_pct", Json.Float m.xv_error_pct) ]
              else [])
        | None -> [])
      @ [
          ("blocks", Json.Int pr.Timing.pr_blocks);
          ("mispredicts", Json.Int pr.Timing.pr_mispredicts);
          ("top_blocks", Json.List (List.map block_json p.tp_top));
          ("findings", Diag.list_to_json pr.Timing.pr_diags);
        ])
  in
  Json.Obj
    [
      ("programs", Json.List (List.map program_json r.tr_programs));
      ( "summary",
        Json.Obj
          ([
             ("programs", Json.Int (List.length r.tr_programs));
             ("warnings", Json.Int (Diag.warnings (findings r)));
           ]
          @
          match r.tr_fit with
          | Some (pearson, mape) ->
            [ ("pearson", Json.Float pearson); ("mape", Json.Float mape) ]
          | None -> []) );
    ]

let crossval () : Table.t =
  let r = report ~top:0 ~xval:true Platforms.C Registry.all in
  let t =
    Table.create
      ~title:
        "Static timing analyzer vs cycle-level simulator (compiled code)"
      [
        ("benchmark", Table.Left);
        ("predicted", Table.Right);
        ("measured", Table.Right);
        ("error", Table.Right);
        ("blocks", Table.Right);
        ("mispredicts", Table.Right);
      ]
  in
  List.iter
    (fun p ->
      let pr = p.tp_prediction and m = Option.get p.tp_measured in
      Table.add_row t
        [
          p.tp_bench;
          string_of_int pr.Timing.pr_cycles;
          string_of_int m.xv_cycles;
          Table.fpct m.xv_error_pct;
          string_of_int pr.Timing.pr_blocks;
          Printf.sprintf "%d/%d" pr.Timing.pr_mispredicts m.xv_mispredicts;
        ])
    r.tr_programs;
  let pearson, mape = Option.get r.tr_fit in
  Table.add_sep t;
  Table.add_row t [ "pearson"; Table.fnum pearson; ""; ""; ""; "" ];
  Table.add_row t [ "mape"; Table.fpct mape; ""; ""; ""; "" ];
  t
