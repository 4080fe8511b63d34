(* Accuracy cross-validation of the sampled simulator against the full
   detailed simulator.

   [Sampled.run] keeps execution exact and samples the detailed timing
   model (SMARTS-style systematic sampling), reporting an estimated
   whole-run cycle count with a Student-t 95% confidence interval.  The
   methodology's own claim is the thing under test here: on roughly 95%
   of runs the true cycle count should fall inside the reported
   interval.  Short workloads fall back to full detailed simulation
   (exact, CI 0) and count as trivially within.

   Systematic sampling has a known failure mode this suite keeps honest:
   a workload whose cycles-per-block profile is periodic at (a divisor
   of) the sampling period yields near-zero across-interval variance
   around a biased mean — a tight interval in the wrong place.  The gate
   therefore asks for within-CI coverage on most, not all, workloads. *)

module Registry = Trips_workloads.Registry
module Image = Trips_tir.Image
module Ast = Trips_tir.Ast
module Core = Trips_sim.Core
module Sampled = Trips_sim.Sampled
module Table = Trips_util.Table
module Json = Trips_util.Json
module Preset = Trips_workloads.Preset

type row = {
  sx_bench : string;
  sx_actual : int;          (* full detailed simulation cycles *)
  sx_estimate : float;      (* sampled estimate *)
  sx_ci95 : float;          (* +/- at 95% confidence *)
  sx_intervals : int;       (* measurement intervals used *)
  sx_full : bool;           (* fell back to exact full simulation *)
  sx_error_pct : float;     (* signed, 100*(est-actual)/actual *)
  sx_within : bool;         (* |est - actual| <= ci95 *)
}

let estimates = Platforms.Memo.create ()

let estimate (q : Platforms.quality) (b : Registry.bench) : Sampled.estimate =
  Platforms.Memo.find_or_compute estimates (q, b.Registry.name) (fun () ->
      let prog = Platforms.edge_program q b in
      let image = Image.build b.Registry.program.Ast.globals in
      let _, est = Sampled.run prog image ~entry:"main" ~args:[] in
      est)

let compare_bench q (b : Registry.bench) : row =
  let est = estimate q b in
  let actual = (Platforms.trips q b).Core.timing.Core.cycles in
  let err = est.Sampled.es_cycles -. float_of_int actual in
  {
    sx_bench = b.Registry.name;
    sx_actual = actual;
    sx_estimate = est.Sampled.es_cycles;
    sx_ci95 = est.Sampled.es_ci95;
    sx_intervals = est.Sampled.es_intervals;
    sx_full = est.Sampled.es_full;
    sx_error_pct =
      (if actual = 0 then 0. else 100. *. err /. float_of_int actual);
    sx_within = Float.abs err <= est.Sampled.es_ci95;
  }

type report = {
  sr_preset : Platforms.quality;
  sr_rows : row list;
  sr_within : int;
  sr_mean_abs_error_pct : float;
}

let report q benches =
  let rows = List.map (compare_bench q) benches in
  {
    sr_preset = q;
    sr_rows = rows;
    sr_within = List.length (List.filter (fun r -> r.sx_within) rows);
    sr_mean_abs_error_pct =
      (match rows with
      | [] -> 0.
      | _ ->
        List.fold_left (fun a r -> a +. Float.abs r.sx_error_pct) 0. rows
        /. float_of_int (List.length rows));
  }

let to_json r =
  let row_json x =
    Json.Obj
      [
        ("bench", Json.Str x.sx_bench);
        ("actual", Json.Int x.sx_actual);
        ("estimate", Json.Float x.sx_estimate);
        ("ci95", Json.Float x.sx_ci95);
        ("error_pct", Json.Float x.sx_error_pct);
        ("intervals", Json.Int x.sx_intervals);
        ("full", Json.Bool x.sx_full);
        ("within_ci", Json.Bool x.sx_within);
      ]
  in
  Json.Obj
    [
      ("preset", Json.Str (Preset.name r.sr_preset));
      ("rows", Json.List (List.map row_json r.sr_rows));
      ( "summary",
        Json.Obj
          [
            ("workloads", Json.Int (List.length r.sr_rows));
            ("within_ci", Json.Int r.sr_within);
            ("mean_abs_error_pct", Json.Float r.sr_mean_abs_error_pct);
          ] );
    ]

let table r : Table.t =
  let t =
    Table.create
      ~title:"Sampled simulation vs full detailed simulation (compiled code)"
      [
        ("benchmark", Table.Left);
        ("actual", Table.Right);
        ("estimate", Table.Right);
        ("ci95", Table.Right);
        ("error", Table.Right);
        ("intervals", Table.Right);
        ("within", Table.Left);
      ]
  in
  List.iter
    (fun x ->
      Table.add_row t
        [
          x.sx_bench;
          string_of_int x.sx_actual;
          Printf.sprintf "%.0f" x.sx_estimate;
          Printf.sprintf "%.0f" x.sx_ci95;
          Table.fpct x.sx_error_pct;
          (if x.sx_full then "full" else string_of_int x.sx_intervals);
          (if x.sx_within then "yes" else "NO");
        ])
    r.sr_rows;
  Table.add_sep t;
  Table.add_row t
    [ "within ci"; Printf.sprintf "%d/%d" r.sr_within (List.length r.sr_rows);
      ""; ""; ""; ""; "" ];
  Table.add_row t
    [ "mean |error|"; ""; ""; ""; Table.fpct r.sr_mean_abs_error_pct; ""; "" ];
  t

let crossval () : Table.t = table (report Platforms.C Registry.all)
