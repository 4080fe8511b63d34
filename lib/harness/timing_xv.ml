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

type row = {
  xv_bench : string;
  xv_predicted : int;
  xv_measured : int;
  xv_error_pct : float;         (* signed, (pred - meas) / meas *)
  xv_blocks : int;
  xv_pred_mispredicts : int;
  xv_sim_mispredicts : int;
}

let compare_bench q (b : Registry.bench) : row =
  let p = predict q b in
  let r = Platforms.trips q b in
  let measured = r.Core.timing.Core.cycles in
  {
    xv_bench = b.Registry.name;
    xv_predicted = p.Timing.pr_cycles;
    xv_measured = measured;
    xv_error_pct =
      (if measured = 0 then 0.
       else
         100.
         *. float_of_int (p.Timing.pr_cycles - measured)
         /. float_of_int measured);
    xv_blocks = p.Timing.pr_blocks;
    xv_pred_mispredicts = p.Timing.pr_mispredicts;
    xv_sim_mispredicts =
      r.Core.timing.Core.branch_mispredicts
      + r.Core.timing.Core.callret_mispredicts;
  }

let rows ?(quality = Platforms.C) bs = List.map (compare_bench quality) bs

let pearson_of rows =
  Stats.pearson
    (List.map (fun r -> float_of_int r.xv_predicted) rows)
    (List.map (fun r -> float_of_int r.xv_measured) rows)

let mape_of rows =
  Stats.mape
    ~predicted:(List.map (fun r -> float_of_int r.xv_predicted) rows)
    ~actual:(List.map (fun r -> float_of_int r.xv_measured) rows)

let crossval () : Table.t =
  let rs = rows Registry.all in
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
    (fun r ->
      Table.add_row t
        [
          r.xv_bench;
          string_of_int r.xv_predicted;
          string_of_int r.xv_measured;
          Table.fpct r.xv_error_pct;
          string_of_int r.xv_blocks;
          Printf.sprintf "%d/%d" r.xv_pred_mispredicts r.xv_sim_mispredicts;
        ])
    rs;
  Table.add_sep t;
  Table.add_row t
    [ "pearson"; Table.fnum (pearson_of rs); ""; ""; ""; "" ];
  Table.add_row t [ "mape"; Table.fpct (mape_of rs); ""; ""; ""; "" ];
  t
