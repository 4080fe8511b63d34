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

let rows ?(quality = Platforms.C) bs = List.map (compare_bench quality) bs

let within_of rows = List.length (List.filter (fun r -> r.sx_within) rows)

let mean_abs_error_of rows =
  match rows with
  | [] -> 0.
  | _ ->
    List.fold_left (fun a r -> a +. Float.abs r.sx_error_pct) 0. rows
    /. float_of_int (List.length rows)

let table_of rs : Table.t =
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
    (fun r ->
      Table.add_row t
        [
          r.sx_bench;
          string_of_int r.sx_actual;
          Printf.sprintf "%.0f" r.sx_estimate;
          Printf.sprintf "%.0f" r.sx_ci95;
          Table.fpct r.sx_error_pct;
          (if r.sx_full then "full" else string_of_int r.sx_intervals);
          (if r.sx_within then "yes" else "NO");
        ])
    rs;
  Table.add_sep t;
  Table.add_row t
    [
      "within ci";
      Printf.sprintf "%d/%d" (within_of rs) (List.length rs);
      "";
      "";
      "";
      "";
      "";
    ];
  Table.add_row t
    [ "mean |error|"; ""; ""; ""; Table.fpct (mean_abs_error_of rs); ""; "" ];
  t

let crossval () : Table.t = table_of (rows Registry.all)
