module Oracle = Trips_fuzz.Oracle
module Batch = Trips_fuzz.Batch

(* ------------------------------------------------------------------ *)
(* The [fuzz] experiment: a fixed-seed differential sweep, fanned      *)
(* across the engine's worker domains as warm sub-jobs (never cached   *)
(* — every program recomputes the full stack).                         *)
(* ------------------------------------------------------------------ *)

let seed = 1
let count = 48

let thunks, finish = Batch.plan (Oracle.make ()) ~seed ~count

let warm () = thunks

let crossval () = Batch.table (finish ())
