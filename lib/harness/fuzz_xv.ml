module Oracle = Trips_fuzz.Oracle
module Batch = Trips_fuzz.Batch
module Table = Trips_util.Table

(* ------------------------------------------------------------------ *)
(* The [fuzz] experiment: a fixed-seed differential sweep, fanned      *)
(* across the engine's worker domains as warm sub-jobs (never cached   *)
(* — every program recomputes the full stack).                         *)
(* ------------------------------------------------------------------ *)

let seed = 1
let count = 48

let slots : Batch.row option array = Array.make count None

let the_oracle = lazy (Oracle.make ())

let warm () =
  List.init count (fun i ->
      fun () ->
       slots.(i) <-
         Some (Batch.run_one (Lazy.force the_oracle) ~seed:(seed + i)))

let crossval () : Table.t =
  let oracle = Lazy.force the_oracle in
  Array.iteri
    (fun i s ->
      if s = None then slots.(i) <- Some (Batch.run_one oracle ~seed:(seed + i)))
    slots;
  let rows = Array.to_list slots |> List.filter_map (fun x -> x) in
  let count_if pred = List.length (List.filter pred rows) in
  let t =
    {
      Batch.bt_seed = seed;
      bt_count = count;
      bt_presets =
        List.map
          (fun (p : Trips_compiler.Driver.preset) ->
            p.Trips_compiler.Driver.pname)
          oracle.Oracle.presets;
      bt_inject = None;
      bt_rows = rows;
      bt_pass = count_if (fun (r : Batch.row) -> r.Batch.b_outcome = Batch.Pass);
      bt_invalid =
        count_if (fun (r : Batch.row) ->
            match r.Batch.b_outcome with Batch.Invalid _ -> true | _ -> false);
      bt_divergent =
        count_if (fun (r : Batch.row) ->
            match r.Batch.b_outcome with
            | Batch.Divergent _ -> true
            | _ -> false);
    }
  in
  Batch.table t
