(* The repository benchmark: one workload per process.

     dune exec bench/perf/perf.exe -- --workload W --seed N --seconds S --trace 0|1
     dune exec bench/perf/perf.exe -- --record-expected

   Workloads: detail, sampled, compile, serve (see each module's header
   and bench/perf/README.md).  The run makes round(S / pass_s) passes,
   at least 3, over the workload's fixed input set, in an order drawn
   from the seed (see [Run]).  Every operation is checked against
   bench/perf/expected.json.

   With [--trace 0] the end-to-end metrics are printed; with [--trace 1]
   untraced and traced passes alternate, the per-layer metrics are
   printed, a per-span self-time table goes to stderr and the spans are
   written as Chrome trace-event JSON under bench/perf/_out/.  Metric
   names and units come from BENCHMARK.json.  The last line of stdout is
   one JSON object {correct, attempted, failed, metrics}; the exit code
   is 1 when any operation failed. *)

module Registry = Trips_workloads.Registry
module Driver = Trips_compiler.Driver
module Core = Trips_sim.Core
module Sampled = Trips_sim.Sampled
module Image = Trips_tir.Image
module Json = Trips_util.Json

(* Metric names and units of one section of BENCHMARK.json. *)
let declared section =
  let fail why = failwith ("BENCHMARK.json: " ^ why) in
  match Json.parse (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) with
  | Error e -> fail e
  | Ok v ->
    Option.value ~default:[] (Option.bind (Json.member section v) Json.as_list)
    |> List.map (fun m ->
           match (Json.mem_str "name" m, Json.mem_str "unit" m) with
           | Some name, Some unit -> (name, unit)
           | _ -> fail ("a metric of " ^ section ^ " has no name or unit"))

type workload = {
  name : string;
  pass_s : float;
      (** seconds of one pass with its set-up on the commit that defined
          the benchmark; sets how many passes [--seconds] buys *)
  per_op : bool;  (** operations run one at a time (see [Run.seconds_per_op]) *)
  run : Run.t -> Expected.t -> unit;
  layers : Run.t -> (string * float) list;
}

let workloads =
  [
    { name = "detail"; pass_s = 4.2; per_op = true; run = Sim_wl.detail; layers = Sim_wl.layers };
    { name = "sampled"; pass_s = 4.2; per_op = true; run = Sim_wl.sampled; layers = Sim_wl.layers };
    { name = "compile"; pass_s = 4.8; per_op = true; run = Compile_wl.run; layers = Compile_wl.layers };
    { name = "serve"; pass_s = 3.4; per_op = false; run = Serve_wl.run; layers = Serve_wl.layers };
  ]

(* Record the oracle: every program any workload runs, with its return
   value checked against the reference interpreter first. *)
let record_expected () =
  let names =
    List.sort_uniq compare
      (Sim_wl.detail_set @ Sim_wl.sampled_set @ Compile_wl.compile_set
     @ Serve_wl.warm_benches @ Serve_wl.sim_benches)
  in
  let simulated = Sim_wl.detail_set @ Sim_wl.sampled_set @ Serve_wl.sim_benches in
  let program name =
    Printf.eprintf "perf: recording %s\n%!" name;
    let b = Registry.find name in
    let prog = Driver.compile Driver.compiled b.Registry.program in
    let image () = Image.build b.Registry.program.Trips_tir.Ast.globals in
    let golden = fst (Registry.golden b) in
    let check ret =
      if ret <> golden then failwith (name ^ ": result differs from the interpreter")
    in
    let detail =
      if List.mem name simulated then begin
        let r = Core.run prog (image ()) ~entry:"main" ~args:[] in
        check r.Core.ret;
        [ ("detail", Expected.detail r) ]
      end
      else []
    in
    let sampled =
      if List.mem name Sim_wl.sampled_set then begin
        let r, e = Sampled.run prog (image ()) ~entry:"main" ~args:[] in
        check r.Core.ret;
        [ ("sampled", Expected.sampled r e) ]
      end
      else []
    in
    let transval =
      if List.mem name Compile_wl.compile_set then
        [ ("transval", Expected.transval (fst (Driver.validate Driver.compiled b.Registry.program))) ]
      else []
    in
    (name, Json.Obj ((("compile", Expected.compile prog) :: detail) @ sampled @ transval))
  in
  Expected.write (List.map program names);
  Printf.eprintf "perf: wrote %s\n%!" Expected.path

(* A value with all its digits; never NaN or infinite in valid JSON. *)
let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let print_result run metrics =
  List.iter
    (fun (name, unit, v) -> Printf.eprintf "  %-28s %16s %s\n" name (number v) unit)
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Json.escape name)
             (number v) (Json.escape unit))
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (run.Run.failed = 0 && run.Run.attempted > 0)
    run.Run.attempted run.Run.failed body

let with_units units values =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name units) then failwith ("metric without a unit: " ^ name))
    values;
  List.map
    (fun (name, unit) -> (name, unit, Option.value ~default:0. (List.assoc_opt name values)))
    units

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let record = ref false in
  Arg.parse
    [
      ("--startup", Arg.Unit (fun () -> exit 0), " exit at once (the start-up probe)");
      ("--workload", Arg.Set_string workload, "W  detail | sampled | compile | serve");
      ("--seed", Arg.Set_int seed, "N  orders the inputs (same seed, same inputs)");
      ("--seconds", Arg.Set_int seconds, "S  make round(S / pass seconds) passes, at least 3");
      ("--trace", Arg.Set_int trace, "0|1  1 = per-layer metrics from a traced run");
      ("--record-expected", Arg.Set record, " rewrite bench/perf/expected.json");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perf.exe --workload W --seed N --seconds S --trace 0|1";
  if !record then record_expected ()
  else
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | None ->
      prerr_endline "perf: --workload must be one of detail, sampled, compile, serve";
      exit 2
    | Some w ->
      (* the minor heap trips_run uses, for every workload alike *)
      Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024 };
      let exp = Expected.load () in
      let traced = !trace = 1 in
      if traced then Span.enable ();
      let passes =
        max 3 (int_of_float (Float.round (float_of_int !seconds /. w.pass_s)))
      in
      let run = Run.create ~trace:traced ~seed:!seed ~passes in
      Span.with_ ("workload " ^ w.name) (fun () -> w.run run exp);
      Printf.eprintf "perf: %s seed %d: %d passes, %d operations, %d failed\n"
        w.name !seed (List.length run.Run.passes) run.Run.attempted
        run.Run.failed;
      let metrics =
        if traced then begin
          Out.ensure ();
          let file =
            Filename.concat Out.dir (Printf.sprintf "trace-%s-%d.json" w.name !seed)
          in
          Span.write_chrome file;
          Span.print_table stderr;
          Printf.eprintf "perf: trace written to %s\n" file;
          with_units (declared "per_layer")
            (("trace.overhead_pct", Run.trace_overhead_pct run)
            :: ("host.speed", Run.speed run)
            :: w.layers run)
        end
        else with_units (declared "end_to_end") (Run.end_to_end run ~per_op:w.per_op)
      in
      print_result run metrics;
      if run.Run.failed > 0 then exit 1
