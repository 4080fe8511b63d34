(* Every threshold of a BENCH file resolves to a number in the report it
   names.  Each report is built in-process by the same library producer
   the CLI renders, on a one-benchmark selection (fuzz: one program), so
   renaming or dropping a gated field fails here instead of in a gate step
   of check.sh.  The simbench and serve reports come from whole-registry
   sweeps and a live load run: their thresholds are gated only by
   check.sh, and this test skips them. *)

module Json = Trips_util.Json
module Gate = Trips_util.Gate
module Registry = Trips_workloads.Registry
module Preset = Trips_workloads.Preset
module Batch = Trips_fuzz.Batch
open Trips_harness

let only = lazy [ Registry.find "vadd" ]

let build = function
  | "absint" ->
    Some
      (Absint_xv.to_json ~strict:true
         (Absint_xv.report ~validate:true [ Preset.C ] (Lazy.force only)))
  | "transval" ->
    Some
      (Transval_xv.to_json ~strict:true
         (Transval_xv.report ~presets:[ Preset.C ] (Lazy.force only)))
  | "fuzz" ->
    Some
      (Batch.to_json
         (Batch.run ~workers:1 (Trips_fuzz.Oracle.make ()) ~seed:1 ~count:1 ()))
  | "timing" ->
    Some
      (Timing_xv.to_json
         (Timing_xv.report ~top:3 ~xval:true Preset.C (Lazy.force only)))
  | "sampling" ->
    Some (Sampling_xv.to_json (Sampling_xv.report Preset.C (Lazy.force only)))
  | "simbench" | "serve" -> None
  | name -> Alcotest.failf "no in-process producer for report %S" name

let reports = Hashtbl.create 8

let report name =
  match Hashtbl.find_opt reports name with
  | Some r -> r
  | None ->
    (* through the text a gate reads, where a non-finite float is null *)
    let r =
      Option.map
        (fun j -> Result.get_ok (Json.parse (Json.to_string j)))
        (build name)
    in
    Hashtbl.replace reports name r;
    r

let gates_resolve file () =
  let path = Filename.concat "../bench" file in
  let bench =
    match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
    | Ok j -> j
    | Error e -> Alcotest.failf "%s: %s" path e
  in
  match Gate.of_json bench with
  | Error e -> Alcotest.failf "%s: %s" path e
  | Ok gates ->
    List.iter
      (fun (g : Gate.t) ->
        Option.iter
          (fun json ->
            match Gate.lookup g.Gate.path json with
            | Ok _ -> ()
            | Error e ->
              Alcotest.failf "%s: report %s, path %s: %s" file g.Gate.report
                g.Gate.path e)
          (report g.Gate.report))
      gates

let () =
  Alcotest.run "reports"
    [
      ( "gated paths",
        List.map
          (fun file -> Alcotest.test_case file `Quick (gates_resolve file))
          [ "BENCH_absint.json"; "BENCH_timing.json"; "BENCH_sim.json" ] );
    ]
