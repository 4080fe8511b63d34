(* Exec golden: the functional emulator's result and every dynamic
   statistic per workload at preset C, pinned to test/exec_golden.ml.

   [Exec] feeds the paper's ISA figures (fetched, executed and useful
   counts, operand-network traffic) and every simulated run, so any
   rewrite of it must leave all 22 [Exec.stats] fields and the return
   value bit-identical.  The default run checks a subset that covers
   calls and returns (8b10b, vortex, crafty) and store-to-load
   forwarding inside a block (canrdr, fbital); TRIPS_EXEC_GOLDEN_FULL=1
   checks every workload. *)

module Registry = Trips_workloads.Registry
module Platforms = Trips_harness.Platforms
module Image = Trips_tir.Image
module Ty = Trips_tir.Ty
module Exec = Trips_edge.Exec

(* [Exec.stats] in declaration order; the fixture stores the values in
   this order. *)
let fields =
  [ "blocks"; "fetched"; "executed"; "not_executed"; "executed_not_used";
    "useful"; "k_arith"; "k_memory"; "k_control"; "k_test"; "k_move";
    "reads_fetched"; "writes_committed"; "stores_committed";
    "loads_executed"; "opn_et_et"; "opn_rt_et"; "opn_et_rt"; "opn_et_dt";
    "opn_dt_et"; "opn_et_gt"; "flops" ]

let stats_array (s : Exec.stats) =
  [| s.blocks; s.fetched; s.executed; s.not_executed; s.executed_not_used;
     s.useful; s.k_arith; s.k_memory; s.k_control; s.k_test; s.k_move;
     s.reads_fetched; s.writes_committed; s.stores_committed;
     s.loads_executed; s.opn_et_et; s.opn_rt_et; s.opn_et_rt; s.opn_et_dt;
     s.opn_dt_et; s.opn_et_gt; s.flops |]

let exec_row name =
  let b = Registry.find name in
  let prog = Platforms.edge_program Platforms.C b in
  let image = Image.build b.Registry.program.Trips_tir.Ast.globals in
  Exec.run prog image ~entry:"main" ~args:[]

let value_literal = function
  | None -> "None"
  | Some (Ty.Vi i) -> Printf.sprintf "Some (Ty.Vi (%LdL))" i
  | Some (Ty.Vf f) -> Printf.sprintf "Some (Ty.Vf (%h))" f

(* TRIPS_EXEC_GOLDEN_RECORD=FILE rewrites the fixture from the current
   emulator instead of testing: only for an intended semantic change. *)
let record path =
  let oc = open_out path in
  output_string oc
    "(* Exec.run result and statistics per workload at preset C (see\n\
    \   test_exec.ml).  Regenerate only if the emulator's semantics or\n\
    \   statistics are meant to change:\n\
    \   TRIPS_EXEC_GOLDEN_RECORD=test/exec_golden.ml dune exec test/test_exec.exe *)\n\n\
     module Ty = Trips_tir.Ty\n\n\
     (* name, ret, Exec.stats fields in declaration order *)\n\
     let per_workload = [\n";
  List.iter
    (fun (b : Registry.bench) ->
      let r = exec_row b.Registry.name in
      Printf.fprintf oc "  (%S, %s,\n   [| %s |]);\n" b.Registry.name
        (value_literal r.Exec.ret)
        (String.concat "; "
           (Array.to_list (Array.map string_of_int (stats_array r.Exec.stats)))))
    Registry.all;
  output_string oc "]\n";
  close_out oc

let fast = [ "ct"; "fft"; "canrdr"; "fbital"; "8b10b"; "vortex"; "crafty" ]

let rows () =
  if Sys.getenv_opt "TRIPS_EXEC_GOLDEN_FULL" <> None then
    Exec_golden.per_workload
  else
    List.filter (fun (name, _, _) -> List.mem name fast) Exec_golden.per_workload

let value = Alcotest.testable Ty.pp_value ( = )

let check (name, ret, expected) () =
  let r = exec_row name in
  Alcotest.(check (option value)) "ret" ret r.Exec.ret;
  let got = stats_array r.Exec.stats in
  List.iteri
    (fun k field -> Alcotest.(check int) field expected.(k) got.(k))
    fields

let () =
  (match Sys.getenv_opt "TRIPS_EXEC_GOLDEN_RECORD" with
  | Some path ->
    record path;
    exit 0
  | None -> ());
  Alcotest.run "exec"
    [
      ( "exec_golden",
        List.map
          (fun ((name, _, _) as row) ->
            Alcotest.test_case name `Quick (check row))
          (rows ()) );
    ]
