(* Exec golden: the functional emulator's result and every dynamic
   statistic per workload at preset C, pinned to test/exec_golden.ml.

   [Exec] feeds the paper's ISA figures (fetched, executed and useful
   counts, operand-network traffic) and every simulated run, so any
   rewrite of it must leave all 22 [Exec.stats] fields and the return
   value bit-identical.  The default run checks a subset that covers
   calls and returns (8b10b, vortex, crafty) and store-to-load
   forwarding inside a block (canrdr, fbital); TRIPS_EXEC_GOLDEN_FULL=1
   checks every workload.

   The instance-stream golden (test/exec_stream_golden.ml) pins what the
   stats fold away: an MD5 over every committed instance's block index,
   exit, [fired] and [useful] arrays and memory events, per workload at
   presets C and H and per fuzz-generated program at C. *)

module Registry = Trips_workloads.Registry
module Platforms = Trips_harness.Platforms
module Image = Trips_tir.Image
module Ty = Trips_tir.Ty
module Exec = Trips_edge.Exec
module Isa = Trips_edge.Isa
module Preset = Trips_workloads.Preset
module Semantics = Trips_tir.Semantics
module Driver = Trips_compiler.Driver
module Block = Trips_edge.Block
module Ast = Trips_tir.Ast

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
   emulator instead of testing, and the instance-stream fixture beside
   it: only for an intended semantic change. *)
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

(* -- instance-stream golden ------------------------------------------ *)

(* Each instance is serialized field by field, [fired] and [useful]
   packed eight flags to a byte; the bytes are hashed in 64 KB chunks, each
   chunk's MD5 chained into the next, so bzip2's four million instances
   never sit in memory at once.  The run's outcome (its return value or
   the exception it raised) closes the stream. *)
let stream_digest run =
  let buf = Buffer.create 70_000 in
  let chain = ref "" in
  let flush () =
    chain := Digest.string (!chain ^ Buffer.contents buf);
    Buffer.clear buf
  in
  let flags a =
    let n = Array.length a in
    Buffer.add_uint16_le buf n;
    let k = ref 0 in
    while !k < n do
      let byte = ref 0 in
      for j = 0 to min 8 (n - !k) - 1 do
        if a.(!k + j) then byte := !byte lor (1 lsl j)
      done;
      Buffer.add_uint8 buf !byte;
      k := !k + 8
    done
  in
  let on_instance (i : Exec.instance) =
    Buffer.add_int32_le buf (Int32.of_int i.iindex);
    Buffer.add_uint16_le buf i.exit_inst;
    (match i.exit_dest with
    | Isa.Xjump l -> Printf.bprintf buf "j%s;" l
    | Isa.Xcall (f, r) -> Printf.bprintf buf "c%s;%s;" f r
    | Isa.Xret -> Buffer.add_char buf 'r');
    flags i.fired;
    flags i.useful;
    List.iter
      (fun (e : Exec.mem_event) ->
        Buffer.add_uint16_le buf e.ev_inst;
        Buffer.add_uint8 buf e.ev_lsid;
        Buffer.add_uint8 buf
          ((if e.ev_is_load then 1 else 0)
          lor (if e.ev_null then 2 else 0)
          lor (Ty.bytes_of_width e.ev_width lsl 2));
        Buffer.add_int64_le buf (Int64.of_int e.ev_addr))
      i.mem_events;
    Buffer.add_char buf '\n';
    if Buffer.length buf >= 65_536 then flush ()
  in
  (match run on_instance with
  | (r : Exec.result) ->
    Buffer.add_string buf (Format.asprintf "ret %a" (Fmt.option Ty.pp_value) r.ret)
  | exception Exec.Stuck (l, m) -> Printf.bprintf buf "stuck %s: %s" l m
  | exception Semantics.Trap m -> Printf.bprintf buf "trap %s" m);
  flush ();
  Digest.to_hex !chain

let workload_stream name ptag =
  let b = Registry.find name in
  let prog = Preset.edge_program (Option.get (Preset.of_string ptag)) b in
  let image = Image.build b.Registry.program.Trips_tir.Ast.globals in
  stream_digest (fun on_instance ->
      Exec.run ~on_instance prog image ~entry:"main" ~args:[])

(* The fuzz oracle's generator, compiler preset and fuel. *)
let fuzz_seeds = List.init 200 (fun i -> i + 1)

let fuzz_stream seed =
  let p = Trips_fuzz.Gen.gen_program ~seed () in
  let prog = Driver.compile (Preset.driver Preset.C) p in
  let image = Image.build p.Trips_tir.Ast.globals in
  stream_digest (fun on_instance ->
      Exec.run ~fuel:50_000_000 ~on_instance prog image ~entry:"main" ~args:[])

let stream_presets = [ "C"; "H" ]

(* Written beside the stats fixture by TRIPS_EXEC_GOLDEN_RECORD. *)
let record_stream path =
  let oc = open_out path in
  output_string oc
    "(* MD5 of Exec.run's instance stream per workload and preset, and per\n\
    \   fuzz seed at preset C (see [stream_digest] in test_exec.ml).\n\
    \   Regenerate only if the emulator's instance stream is meant to\n\
    \   change (this rewrites test/exec_golden.ml too):\n\
    \   TRIPS_EXEC_GOLDEN_RECORD=test/exec_golden.ml dune exec test/test_exec.exe *)\n\n\
     let workloads = [\n";
  List.iter
    (fun (b : Registry.bench) ->
      List.iter
        (fun ptag ->
          Printf.fprintf oc "  (%S, %S, %S);\n" b.Registry.name ptag
            (workload_stream b.Registry.name ptag))
        stream_presets)
    Registry.all;
  output_string oc "]\n\nlet fuzz = [\n";
  List.iter
    (fun seed -> Printf.fprintf oc "  (%d, %S);\n" seed (fuzz_stream seed))
    fuzz_seeds;
  output_string oc "]\n";
  close_out oc

(* basefp reuses block schedules least of all the workloads at C. *)
let stream_fast = [ "ct"; "fft"; "canrdr"; "fbital"; "vortex"; "crafty"; "basefp" ]
let fuzz_stream_fast = 20

let stream_rows () =
  let full = Sys.getenv_opt "TRIPS_EXEC_GOLDEN_FULL" <> None in
  ( List.filter
      (fun (name, _, _) -> full || List.mem name stream_fast)
      Exec_stream_golden.workloads,
    List.filter (fun (seed, _) -> full || seed <= fuzz_stream_fast)
      Exec_stream_golden.fuzz )

(* -- known-answer programs ------------------------------------------- *)

(* Hand-built blocks whose every instance is worked out below: which
   instructions fire, which are useful, the exit and memory events of
   each instance, and the 22 statistics.  The loops repeat one block many
   times, so after its first instance each is replayed from the
   emulator's recorded schedule, and a new predicate outcome forces the
   record-and-link path. *)

let ins ?(pred = Isa.Unpred) ?imm op targets = { Isa.op; pred; imm; targets }
let op0 j = Isa.To_inst (j, Isa.Op0)
let op1 j = Isa.To_inst (j, Isa.Op1)
let opp j = Isa.To_inst (j, Isa.OpPred)
let wr w = Isa.To_write w

let block label reads writes insts =
  { Block.label;
    reads =
      Array.of_list
        (List.map (fun (rreg, rtargets) -> { Block.rreg; rtargets }) reads);
    writes = Array.of_list (List.map (fun wreg -> { Block.wreg }) writes);
    insts = Array.of_list insts;
    placement = [||] }

let program ?(globals = []) fname blocks =
  let p =
    { Block.globals;
      funcs =
        [ { Block.fname; entry = (List.hd blocks).Block.label; blocks } ] }
  in
  List.iter Block.default_placement blocks;
  Block.validate_program p;
  p

(* An instance as plain data: block index, exit, fired and useful
   instruction indices, and memory events (inst, lsid, load, address,
   bytes, nullified). *)
type seen = {
  s_block : int;
  s_exit : int;
  s_fired : int list;
  s_useful : int list;
  s_mem : (int * int * bool * int * int * bool) list;
}

let indices a =
  List.filter_map (fun x -> x) (List.mapi (fun k f -> if f then Some k else None) (Array.to_list a))

let seen_of (i : Exec.instance) =
  { s_block = i.iindex; s_exit = i.exit_inst; s_fired = indices i.fired;
    s_useful = indices i.useful;
    s_mem =
      List.map
        (fun (e : Exec.mem_event) ->
          ( e.ev_inst, e.ev_lsid, e.ev_is_load, e.ev_addr,
            Ty.bytes_of_width e.ev_width, e.ev_null ))
        i.mem_events }

let pp_seen ppf s =
  let ints l = String.concat "," (List.map string_of_int l) in
  Format.fprintf ppf "B%d exit I%d fired [%s] useful [%s] mem [%s]" s.s_block
    s.s_exit (ints s.s_fired) (ints s.s_useful)
    (String.concat "; "
       (List.map
          (fun (i, l, ld, a, w, nul) ->
            Printf.sprintf "I%d L%d %s 0x%x/%d%s" i l (if ld then "ld" else "st") a w
              (if nul then " null" else ""))
          s.s_mem))

let seen = Alcotest.testable pp_seen ( = )

let run_seen ?fuel p image ~args =
  let log = ref [] in
  let r =
    Exec.run ?fuel ~on_instance:(fun i -> log := seen_of i :: !log) p image
      ~entry:(List.hd p.Block.funcs).Block.fname ~args
  in
  (r, List.rev !log)

(* [sum_stats [(count, per-instance stats); ...]] *)
let sum_stats shapes =
  let total = Array.make (List.length fields) 0 in
  List.iter
    (fun (count, v) -> Array.iteri (fun k x -> total.(k) <- total.(k) + (count * x)) v)
    shapes;
  total

let check_stats expected (s : Exec.stats) =
  let got = stats_array s in
  List.iteri (fun k field -> Alcotest.(check int) field expected.(k) got.(k)) fields

(* acc = 5; for i = 0 to n - 1: acc <- if i odd then acc + 3 else acc * 2.
   The loop block's predicate flips on every instance. *)
let alternating_program () =
  let entry =
    block "alt.entry" [] [ 10; 11 ]
      [ ins (Isa.Geni 0L) [ wr 0 ];
        ins (Isa.Geni 5L) [ wr 1 ];
        ins (Isa.Branch (Isa.Xjump "alt.loop")) [] ]
  in
  let loop =
    block "alt.loop"
      [ (10, [ op0 0; op0 1 ]); (11, [ op0 2; op0 3 ]); (2, [ op1 4 ]) ]
      [ 10; 11 ]
      [ ins ~imm:1L (Isa.Bin Ast.And) [ opp 2; opp 3 ];          (* I0 i & 1 *)
        ins ~imm:1L (Isa.Bin Ast.Add) [ op0 4; wr 0 ];           (* I1 i + 1 *)
        ins ~pred:(Isa.On_true 0) ~imm:3L (Isa.Bin Ast.Add) [ wr 1 ];
        ins ~pred:(Isa.On_false 0) ~imm:2L (Isa.Bin Ast.Mul) [ wr 1 ];
        ins (Isa.Bin Ast.Lt) [ opp 5; opp 6 ];                   (* I4 i+1 < n *)
        ins ~pred:(Isa.On_true 4) (Isa.Branch (Isa.Xjump "alt.loop")) [];
        ins ~pred:(Isa.On_false 4) (Isa.Branch (Isa.Xjump "alt.exit")) [] ]
  in
  let exit_b =
    block "alt.exit" [ (11, [ op0 0 ]) ] [ 1 ]
      [ ins Isa.Mov [ wr 0 ]; ins (Isa.Branch Isa.Xret) [] ]
  in
  program "alt" [ entry; loop; exit_b ]

let test_alternating () =
  let n = 6 in
  let r, log = run_seen (alternating_program ()) (Image.build []) ~args:[ Ty.Vi (Int64.of_int n) ] in
  (* 5 *2 10 +3 13 *2 26 +3 29 *2 58 +3 61 *)
  Alcotest.(check (option value)) "ret" (Some (Ty.Vi 61L)) r.Exec.ret;
  let loop i =
    let f = [ 0; 1; (if i land 1 = 1 then 2 else 3); 4; (if i < n - 1 then 5 else 6) ] in
    { s_block = 1; s_exit = (if i < n - 1 then 5 else 6); s_fired = f; s_useful = f; s_mem = [] }
  in
  let expected =
    ({ s_block = 0; s_exit = 2; s_fired = [ 0; 1; 2 ]; s_useful = [ 0; 1; 2 ]; s_mem = [] }
    :: List.init n loop)
    @ [ { s_block = 2; s_exit = 1; s_fired = [ 0; 1 ]; s_useful = [ 0; 1 ]; s_mem = [] } ]
  in
  Alcotest.(check (list seen)) "instance stream" expected log;
  check_stats
    (sum_stats
       [ (1, [| 1; 3; 3; 0; 0; 3; 2; 0; 1; 0; 0; 0; 2; 0; 0; 0; 0; 2; 0; 0; 1; 0 |]);
         (n, [| 1; 7; 5; 2; 0; 5; 3; 0; 1; 1; 0; 3; 2; 0; 0; 5; 5; 2; 0; 0; 1; 0 |]);
         (1, [| 1; 2; 2; 0; 0; 1; 0; 0; 1; 0; 1; 1; 1; 0; 0; 0; 1; 1; 0; 0; 1; 0 |]) ])
    r.Exec.stats

(* acc = 0; for i = 0 to n - 1: (acc <- if i < 200 then acc + 1 else
   acc + 1000; g <- acc; last <- g); return acc + last.  The loop
   block's [i < 200] predicate first comes out false on its 201st
   instance, and its exit on its last. *)
let late_program () =
  let entry =
    block "late.entry" [] [ 10; 11; 12 ]
      [ ins (Isa.Geni 0L) [ wr 0 ];
        ins (Isa.Geni 0L) [ wr 1 ];
        ins (Isa.Geni 0L) [ wr 2 ];
        ins (Isa.Branch (Isa.Xjump "late.loop")) [] ]
  in
  let loop =
    block "late.loop"
      [ (10, [ op0 0; op0 1 ]); (11, [ op0 3; op0 4 ]); (2, [ op1 7 ]) ]
      [ 10; 11; 12 ]
      [ ins ~imm:200L (Isa.Bin Ast.Lt) [ opp 3; opp 4 ];          (* I0 i < 200 *)
        ins ~imm:1L (Isa.Bin Ast.Add) [ op0 7; wr 0 ];            (* I1 i + 1 *)
        ins (Isa.Geni 0x1000L) [ op0 5; op0 6 ];                  (* I2 &g *)
        ins ~pred:(Isa.On_true 0) ~imm:1L (Isa.Bin Ast.Add) [ wr 1; op1 5 ];
        ins ~pred:(Isa.On_false 0) ~imm:1000L (Isa.Bin Ast.Add) [ wr 1; op1 5 ];
        ins (Isa.Store (Ty.W8, 0)) [];                            (* I5 g <- acc *)
        ins (Isa.Load (Ty.I64, Ty.W8, 1)) [ wr 2 ];               (* I6 g *)
        ins (Isa.Bin Ast.Lt) [ opp 8; opp 9 ];                    (* I7 i+1 < n *)
        ins ~pred:(Isa.On_true 7) (Isa.Branch (Isa.Xjump "late.loop")) [];
        ins ~pred:(Isa.On_false 7) (Isa.Branch (Isa.Xjump "late.exit")) [] ]
  in
  let exit_b =
    block "late.exit" [ (11, [ op0 0 ]); (12, [ op1 0 ]) ] [ 1 ]
      [ ins (Isa.Bin Ast.Add) [ wr 0 ]; ins (Isa.Branch Isa.Xret) [] ]
  in
  program ~globals:[ Ast.global "g" 8 ] "late" [ entry; loop; exit_b ]

let test_late_outcome () =
  let n = 260 in
  let p = late_program () in
  let image = Image.build p.Block.globals in
  let r, log = run_seen p image ~args:[ Ty.Vi (Int64.of_int n) ] in
  let acc = 200 + ((n - 200) * 1000) in
  Alcotest.(check (option value)) "ret" (Some (Ty.Vi (Int64.of_int (2 * acc)))) r.Exec.ret;
  Alcotest.(check int64) "memory" (Int64.of_int acc) (Image.load_u image Ty.W8 0x1000);
  let loop i =
    let f =
      [ 0; 1; 2; (if i < 200 then 3 else 4); 5; 6; 7; (if i < n - 1 then 8 else 9) ]
    in
    { s_block = 1; s_exit = (if i < n - 1 then 8 else 9); s_fired = f; s_useful = f;
      s_mem = [ (5, 0, false, 0x1000, 8, false); (6, 1, true, 0x1000, 8, false) ] }
  in
  let expected =
    ({ s_block = 0; s_exit = 3; s_fired = [ 0; 1; 2; 3 ]; s_useful = [ 0; 1; 2; 3 ];
       s_mem = [] }
    :: List.init n loop)
    @ [ { s_block = 2; s_exit = 1; s_fired = [ 0; 1 ]; s_useful = [ 0; 1 ]; s_mem = [] } ]
  in
  Alcotest.(check (list seen)) "instance stream" expected log;
  check_stats
    (sum_stats
       [ (1, [| 1; 4; 4; 0; 0; 4; 3; 0; 1; 0; 0; 0; 3; 0; 0; 0; 0; 3; 0; 0; 1; 0 |]);
         (n, [| 1; 10; 8; 2; 0; 8; 3; 2; 1; 2; 0; 3; 3; 1; 1; 8; 5; 3; 2; 0; 1; 0 |]);
         (1, [| 1; 2; 2; 0; 0; 2; 1; 0; 1; 0; 0; 2; 1; 0; 0; 0; 2; 1; 0; 0; 1; 0 |]) ])
    r.Exec.stats

(* acc = 0; for i = 0 to n - 1: (acc <- acc + 1; g <- acc; last <- if i
   odd then g else 7); return acc + last.  The load is predicated on [i
   odd] and popped before the store below its LSID has fired, so on odd
   instances it passes its predicate test, waits, and fires once the
   store has; on even instances the same first pop squashes it.  That
   test is the first point where the two shapes differ. *)
let waiting_load_program () =
  let entry =
    block "wait.entry" [] [ 10; 11; 12 ]
      [ ins (Isa.Geni 0L) [ wr 0 ];
        ins (Isa.Geni 0L) [ wr 1 ];
        ins (Isa.Geni 0L) [ wr 2 ];
        ins (Isa.Branch (Isa.Xjump "wait.loop")) [] ]
  in
  let loop =
    block "wait.loop"
      [ (11, [ op0 2 ]); (10, [ op0 0; op0 1 ]); (2, [ op1 8 ]) ]
      [ 10; 11; 12 ]
      [ ins ~imm:1L (Isa.Bin Ast.And) [ opp 7; opp 6 ];          (* I0 i & 1 *)
        ins ~imm:1L (Isa.Bin Ast.Add) [ op0 8; wr 0 ];           (* I1 i + 1 *)
        ins ~imm:1L (Isa.Bin Ast.Add) [ op1 5; wr 1 ];           (* I2 acc + 1 *)
        ins (Isa.Geni 0x1000L) [ op0 5 ];
        ins (Isa.Geni 0x1000L) [ op0 6 ];
        ins (Isa.Store (Ty.W8, 0)) [];                           (* I5 g <- acc *)
        ins ~pred:(Isa.On_true 0) (Isa.Load (Ty.I64, Ty.W8, 1)) [ wr 2 ];
        ins ~pred:(Isa.On_false 0) (Isa.Geni 7L) [ wr 2 ];
        ins (Isa.Bin Ast.Lt) [ opp 9; opp 10 ];                  (* I8 i+1 < n *)
        ins ~pred:(Isa.On_true 8) (Isa.Branch (Isa.Xjump "wait.loop")) [];
        ins ~pred:(Isa.On_false 8) (Isa.Branch (Isa.Xjump "wait.exit")) [] ]
  in
  let exit_b =
    block "wait.exit" [ (11, [ op0 0 ]); (12, [ op1 0 ]) ] [ 1 ]
      [ ins (Isa.Bin Ast.Add) [ wr 0 ]; ins (Isa.Branch Isa.Xret) [] ]
  in
  program ~globals:[ Ast.global "g" 8 ] "wait" [ entry; loop; exit_b ]

let test_waiting_load () =
  let n = 6 in
  let p = waiting_load_program () in
  let image = Image.build p.Block.globals in
  let r, log = run_seen p image ~args:[ Ty.Vi (Int64.of_int n) ] in
  Alcotest.(check (option value)) "ret" (Some (Ty.Vi (Int64.of_int (2 * n)))) r.Exec.ret;
  Alcotest.(check int64) "memory" (Int64.of_int n) (Image.load_u image Ty.W8 0x1000);
  let store = (5, 0, false, 0x1000, 8, false) in
  let loop i =
    let exit = if i < n - 1 then 9 else 10 in
    if i land 1 = 1 then
      let f = [ 0; 1; 2; 3; 4; 5; 6; 8; exit ] in
      { s_block = 1; s_exit = exit; s_fired = f; s_useful = f;
        s_mem = [ store; (6, 1, true, 0x1000, 8, false) ] }
    else
      (* the load's address is computed for nothing *)
      { s_block = 1; s_exit = exit; s_fired = [ 0; 1; 2; 3; 4; 5; 7; 8; exit ];
        s_useful = [ 0; 1; 2; 3; 5; 7; 8; exit ]; s_mem = [ store ] }
  in
  let expected =
    ({ s_block = 0; s_exit = 3; s_fired = [ 0; 1; 2; 3 ]; s_useful = [ 0; 1; 2; 3 ];
       s_mem = [] }
    :: List.init n loop)
    @ [ { s_block = 2; s_exit = 1; s_fired = [ 0; 1 ]; s_useful = [ 0; 1 ]; s_mem = [] } ]
  in
  Alcotest.(check (list seen)) "instance stream" expected log;
  check_stats
    (sum_stats
       [ (1, [| 1; 4; 4; 0; 0; 4; 3; 0; 1; 0; 0; 0; 3; 0; 0; 0; 0; 3; 0; 0; 1; 0 |]);
         (n / 2, [| 1; 11; 9; 2; 0; 9; 5; 2; 1; 1; 0; 3; 3; 1; 1; 8; 4; 3; 2; 0; 1; 0 |]);
         (n / 2, [| 1; 11; 9; 2; 1; 8; 6; 1; 1; 1; 0; 3; 3; 1; 0; 8; 4; 3; 1; 0; 1; 0 |]);
         (1, [| 1; 2; 2; 0; 0; 2; 1; 0; 1; 0; 0; 2; 1; 0; 0; 0; 2; 1; 0; 0; 1; 0 |]) ])
    r.Exec.stats

(* for i = 0 ..: q <- 1000 / (i - 49): the 50th loop instance divides by
   zero, after the entry and 49 loop instances have committed. *)
let test_late_trap () =
  let entry =
    block "trap.entry" [] [ 10 ]
      [ ins (Isa.Geni 0L) [ wr 0 ]; ins (Isa.Branch (Isa.Xjump "trap.loop")) [] ]
  in
  let loop =
    block "trap.loop" [ (10, [ op0 0; op0 3 ]) ] [ 10; 11 ]
      [ ins ~imm:49L (Isa.Bin Ast.Sub) [ op1 2 ];
        ins (Isa.Geni 1000L) [ op0 2 ];
        ins (Isa.Bin Ast.Div) [ wr 1 ];
        ins ~imm:1L (Isa.Bin Ast.Add) [ wr 0 ];
        ins (Isa.Branch (Isa.Xjump "trap.loop")) [] ]
  in
  let p = program "trap" [ entry; loop ] in
  let committed = ref 0 in
  Alcotest.check_raises "division by zero"
    (Semantics.Trap "integer division by zero") (fun () ->
      ignore
        (Exec.run ~on_instance:(fun _ -> incr committed) p (Image.build [])
           ~entry:"trap" ~args:[]));
  Alcotest.(check int) "instances committed before the trap" 50 !committed

(* One loop block that fires every kind of operation the emulator
   decodes: integer binops on two operands (register reads among them)
   and on an immediate, float binops, integer and float unops, moves,
   integer and float constants, integer loads of every width, a float
   load, and stores of every width, integer and float.  Its 250
   instances replay one recorded schedule after the first, so replay
   fires them all; the result and the memory image must be the TIR
   interpreter's on the same computation. *)
let ops_program () =
  let entry =
    block "ops.entry" [] [ 10; 11; 12 ]
      [ ins (Isa.Geni 0L) [ wr 0 ];
        ins (Isa.Geni 5L) [ wr 1 ];
        ins (Isa.Genf 1000.5) [ wr 2 ];
        ins (Isa.Branch (Isa.Xjump "ops.loop")) [] ]
  in
  let base = Isa.Geni 0x1000L in
  let load ty w lsid disp t = ins ~imm:disp (Isa.Load (ty, w, lsid)) [ t ] in
  let store w lsid disp = ins ~imm:disp (Isa.Store (w, lsid)) [] in
  let loop =
    block "ops.loop"
      [ (10, [ op0 32 ]); (11, [ op0 12 ]); (12, [ op0 18 ]); (2, [ op1 33 ]) ]
      [ 10; 11; 12 ]
      [ ins base [ op0 2; op0 3 ];                               (* I0 *)
        ins base [ op0 4; op0 5 ];
        load Ty.I64 Ty.W1 0 0L (op0 8);                          (* I2 *)
        load Ty.I64 Ty.W2 1 2L (op1 8);
        load Ty.I64 Ty.W4 2 4L (op0 9);
        load Ty.I64 Ty.W8 3 8L (op1 9);
        ins base [ op0 7; op0 22 ];                              (* I6 *)
        load Ty.F64 Ty.W8 4 24L (op1 16);
        ins (Isa.Bin Ast.Add) [ op0 10 ];                        (* I8 l1 + l2 *)
        ins (Isa.Bin Ast.Xor) [ op1 10 ];                        (* I9 l4 ^ l8 *)
        ins (Isa.Bin Ast.Sub) [ op0 11 ];
        ins (Isa.Un (Ast.Sext Ty.W2)) [ op1 12 ];                (* I11 *)
        ins (Isa.Bin Ast.Add) [ wr 1; op0 13 ];                  (* I12 acc' *)
        ins ~imm:3L (Isa.Bin Ast.Mul) [ op0 14; op0 15 ];        (* I13 x *)
        ins Isa.Mov [ op1 22; op1 23 ];
        ins Isa.Mov [ op1 24; op1 25 ];                          (* I15 *)
        ins (Isa.Bin Ast.Fadd) [ wr 2; op0 17 ];                 (* I16 f' *)
        ins Isa.Mov [ op1 26; op0 19 ];
        ins (Isa.Bin Ast.Fmul) [ op0 16 ];                       (* I18 f * 0.5 *)
        ins (Isa.Un Ast.Ftoi) [ op0 20 ];
        ins (Isa.Un Ast.Itof) [ op0 28 ];                        (* I20 *)
        ins (Isa.Genf 0.5) [ op1 18 ];
        store Ty.W1 5 0L;                                        (* I22 *)
        store Ty.W2 6 2L;
        store Ty.W4 7 4L;
        store Ty.W8 8 8L;
        store Ty.W8 9 16L;                                       (* I26 f' *)
        store Ty.W8 10 24L;
        ins (Isa.Un Ast.Fneg) [ op1 27 ];                        (* I28 *)
        ins base [ op0 23; op0 24 ];
        ins base [ op0 25; op0 26 ];                             (* I30 *)
        ins base [ op0 27 ];
        ins ~imm:1L (Isa.Bin Ast.Add) [ wr 0; op0 33 ];          (* I32 i + 1 *)
        ins (Isa.Bin Ast.Lt) [ opp 34; opp 35 ];                 (* I33 i+1 < n *)
        ins ~pred:(Isa.On_true 33) (Isa.Branch (Isa.Xjump "ops.loop")) [];
        ins ~pred:(Isa.On_false 33) (Isa.Branch (Isa.Xjump "ops.exit")) [] ]
  in
  let exit_b =
    block "ops.exit" [ (11, [ op0 0 ]) ] [ 1 ]
      [ ins Isa.Mov [ wr 0 ]; ins (Isa.Branch Isa.Xret) [] ]
  in
  program ~globals:[ Ast.global "buf" 32 ] "ops" [ entry; loop; exit_b ]

(* the same computation in TIR *)
let ops_tir () =
  let v x = Ast.Var x and at d = Ast.Bin (Ast.Add, Ast.Glo "buf", Ast.Int d) in
  let bin op a b = Ast.Bin (op, a, b) in
  Ast.program ~globals:[ Ast.global "buf" 32 ]
    [ Ast.func "ops" ~params:[ ("n", Ty.I64) ] ~ret:Ty.I64
        [ Ast.Let ("i", Ast.Int 0L);
          Ast.Let ("acc", Ast.Int 5L);
          Ast.Let ("f", Ast.Flt 1000.5);
          Ast.While
            ( bin Ast.Lt (v "i") (v "n"),
              [ Ast.Let
                  ( "t",
                    bin Ast.Sub
                      (bin Ast.Add (Ast.Load (Ty.I64, Ty.W1, at 0L))
                         (Ast.Load (Ty.I64, Ty.W2, at 2L)))
                      (bin Ast.Xor (Ast.Load (Ty.I64, Ty.W4, at 4L))
                         (Ast.Load (Ty.I64, Ty.W8, at 8L))) );
                Ast.Let ("lf", Ast.Load (Ty.F64, Ty.W8, at 24L));
                Ast.Let ("acc", bin Ast.Add (v "acc") (Ast.Un (Ast.Sext Ty.W2, v "t")));
                Ast.Let ("x", bin Ast.Mul (v "acc") (Ast.Int 3L));
                Ast.Let ("f", bin Ast.Fadd (bin Ast.Fmul (v "f") (Ast.Flt 0.5)) (v "lf"));
                Ast.Store (Ty.W1, at 0L, v "x");
                Ast.Store (Ty.W2, at 2L, v "x");
                Ast.Store (Ty.W4, at 4L, v "x");
                Ast.Store (Ty.W8, at 8L, v "x");
                Ast.Store (Ty.W8, at 16L, v "f");
                Ast.Store
                  (Ty.W8, at 24L, Ast.Un (Ast.Fneg, Ast.Un (Ast.Itof, Ast.Un (Ast.Ftoi, v "f"))));
                Ast.Let ("i", bin Ast.Add (v "i") (Ast.Int 1L)) ] );
          Ast.Return (Some (v "acc")) ] ]

let test_every_op_replayed () =
  let n = 250 in
  let p = ops_program () in
  let image = Image.build p.Block.globals in
  let r, log = run_seen p image ~args:[ Ty.Vi (Int64.of_int n) ] in
  let t = ops_tir () in
  let t_image = Image.build t.Ast.globals in
  let expected = Trips_tir.Interp.run_ast t t_image "ops" [ Ty.Vi (Int64.of_int n) ] in
  Alcotest.(check (option value)) "ret" expected.Trips_tir.Interp.result r.Exec.ret;
  Alcotest.(check bool) "memory" true (Image.equal t_image image);
  Alcotest.(check int) "instances" (n + 2) (List.length log);
  (* every loop instance fires all but one of its 36 instructions *)
  Alcotest.(check int) "fired" (4 + (35 * n) + 2) r.Exec.stats.Exec.executed;
  Alcotest.(check int) "flops" (2 * n) r.Exec.stats.Exec.flops

(* Fuel counts fired instructions: a run that fires exactly [fuel] runs
   out on its last one.  On the alternating loop every fuel value is
   tried, so the last fire falls in every instance in turn, replayed
   ones included: the run stops in that instance's block, after exactly
   the instances before it have committed. *)
let test_fuel_boundary () =
  let n = 6 in
  let p = alternating_program () in
  (* cumulative fires at the end of each instance: entry, loop, exit *)
  let ends = List.init (n + 2) (fun k -> if k <= n then 3 + (5 * k) else 3 + (5 * n) + 2) in
  let label k = if k = 0 then "alt.entry" else if k <= n then "alt.loop" else "alt.exit" in
  let total = List.nth ends (n + 1) in
  for fuel = 1 to total + 1 do
    let committed = ref 0 in
    match
      Exec.run ~fuel ~on_instance:(fun _ -> incr committed) p (Image.build [])
        ~entry:"alt" ~args:[ Ty.Vi (Int64.of_int n) ]
    with
    | r ->
      Alcotest.(check int) "completes only with fuel to spare" (total + 1) fuel;
      Alcotest.(check (option value)) "ret" (Some (Ty.Vi 61L)) r.Exec.ret
    | exception Exec.Stuck (l, reason) ->
      let before = List.length (List.filter (fun e -> e < fuel) ends) in
      Alcotest.(check string) "reason" "out of fuel" reason;
      Alcotest.(check string) (Printf.sprintf "fuel %d: block" fuel) (label before) l;
      Alcotest.(check int) (Printf.sprintf "fuel %d: committed" fuel) before !committed
  done;
  let b = Registry.find "fft" in
  let prog = Preset.edge_program Preset.C b in
  let run fuel =
    Exec.run ~fuel prog (Image.build b.Registry.program.Trips_tir.Ast.globals)
      ~entry:"main" ~args:[]
  in
  let full = run 400_000_000 in
  let k = full.Exec.stats.Exec.executed in
  (match run k with
  | _ -> Alcotest.fail "completed with fuel = executed"
  | exception Exec.Stuck (_, reason) ->
    Alcotest.(check string) "reason" "out of fuel" reason);
  let r = run (k + 1) in
  Alcotest.(check (option value)) "ret" full.Exec.ret r.Exec.ret;
  check_stats (stats_array full.Exec.stats) r.Exec.stats

let () =
  (match Sys.getenv_opt "TRIPS_EXEC_GOLDEN_RECORD" with
  | Some path ->
    record path;
    record_stream (Filename.concat (Filename.dirname path) "exec_stream_golden.ml");
    exit 0
  | None -> ());
  let stream_workloads, stream_fuzz = stream_rows () in
  Alcotest.run "exec"
    [
      ( "known_answer",
        [ Alcotest.test_case "alternating predicate" `Quick test_alternating;
          Alcotest.test_case "outcome first seen after 200 instances" `Quick
            test_late_outcome;
          Alcotest.test_case "predicated load waiting for a store" `Quick
            test_waiting_load;
          Alcotest.test_case "trap on the 50th instance" `Quick test_late_trap;
          Alcotest.test_case "every decoded operation replayed" `Quick
            test_every_op_replayed;
          Alcotest.test_case "fuel boundary" `Quick test_fuel_boundary ] );
      ( "exec_golden",
        List.map
          (fun ((name, _, _) as row) ->
            Alcotest.test_case name `Quick (check row))
          (rows ()) );
      ( "stream_golden",
        List.map
          (fun (name, ptag, digest) ->
            Alcotest.test_case (name ^ "/" ^ ptag) `Quick (fun () ->
                Alcotest.(check string) "instance stream" digest
                  (workload_stream name ptag)))
          stream_workloads
        @ List.map
            (fun (seed, digest) ->
              Alcotest.test_case (Printf.sprintf "fuzz seed %d" seed) `Quick
                (fun () ->
                  Alcotest.(check string) "instance stream" digest
                    (fuzz_stream seed)))
            stream_fuzz );
    ]
