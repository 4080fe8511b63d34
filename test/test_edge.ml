(* Tests for the EDGE ISA layer: block construction, validation, and the
   functional dataflow executor (predication, null stores, LSID ordering,
   fanout movs, block-atomic commit). *)

open Trips_tir
open Trips_edge

let value = Alcotest.testable Ty.pp_value ( = )

(* A counted loop:  for (i = 0; i < n; i++) acc += i;  return acc.
   Registers: r2 = n (arg), r10 = i, r11 = acc, r1 = result. *)
let sum_program () =
  let open Builder in
  let entry =
    let b = create "sum.entry" in
    let z = inst b (Isa.Geni 0L) in
    write b 10 [ z ];
    let z2 = inst b (Isa.Geni 0L) in
    write b 11 [ z2 ];
    let _ = inst b (Isa.Branch (Isa.Xjump "sum.loop")) in
    finish b
  in
  let loop =
    (* the register updates are predicated on the loop test, as the TRIPS
       compiler emits them: the exiting instance must not commit another
       increment (predicate-merged writes) *)
    let b = create "sum.loop" in
    let i = read b 10 in
    let acc = read b 11 in
    let n = read b 2 in
    let t = inst b (Isa.Bin Ast.Lt) in
    arc b i t Isa.Op0;
    arc b n t Isa.Op1;
    let i' = inst b ~pred:(t, true) ~imm:1L (Isa.Bin Ast.Add) in
    arc b i i' Isa.Op0;
    let i_keep = inst b ~pred:(t, false) Isa.Mov in
    arc b i i_keep Isa.Op0;
    let acc' = inst b ~pred:(t, true) (Isa.Bin Ast.Add) in
    arc b acc acc' Isa.Op0;
    arc b i acc' Isa.Op1;
    let acc_keep = inst b ~pred:(t, false) Isa.Mov in
    arc b acc acc_keep Isa.Op0;
    write b 10 [ i'; i_keep ];
    write b 11 [ acc'; acc_keep ];
    let _ = inst b ~pred:(t, true) (Isa.Branch (Isa.Xjump "sum.loop")) in
    let _ = inst b ~pred:(t, false) (Isa.Branch (Isa.Xjump "sum.exit")) in
    finish b
  in
  let exit_b =
    let b = create "sum.exit" in
    let acc = read b 11 in
    let m = inst b Isa.Mov in
    arc b acc m Isa.Op0;
    write b 1 [ m ];
    let _ = inst b (Isa.Branch Isa.Xret) in
    finish b
  in
  {
    Block.globals = [];
    funcs = [ { Block.fname = "sum"; entry = "sum.entry"; blocks = [ entry; loop; exit_b ] } ];
  }

let test_sum_loop () =
  let p = sum_program () in
  Block.validate_program p;
  let image = Image.build [] in
  let r = Exec.run p image ~entry:"sum" ~args:[ Ty.Vi 10L ] in
  Alcotest.(check (option value)) "sum 0..9" (Some (Ty.Vi 45L)) r.ret;
  (* 11 block instances: entry + 10 loop iterations + exit... the loop test
     runs n+1 times (i=0..10), so blocks = 1 + 11 + 1 *)
  Alcotest.(check int) "blocks" 13 r.stats.Exec.blocks

(* Predicated select: return a > b ? a : b, with both movs feeding one
   write slot. *)
let max_program () =
  let open Builder in
  let b = create "max.entry" in
  let a = read b 2 in
  let b2 = read b 3 in
  let t = inst b (Isa.Bin Ast.Gt) in
  arc b a t Isa.Op0;
  arc b b2 t Isa.Op1;
  let mt = inst b ~pred:(t, true) Isa.Mov in
  arc b a mt Isa.Op0;
  let mf = inst b ~pred:(t, false) Isa.Mov in
  arc b b2 mf Isa.Op0;
  write b 1 [ mt; mf ];
  let _ = inst b (Isa.Branch Isa.Xret) in
  let blk = finish b in
  { Block.globals = []; funcs = [ { Block.fname = "max"; entry = "max.entry"; blocks = [ blk ] } ] }

let test_predicated_select () =
  let p = max_program () in
  Block.validate_program p;
  let run a b =
    let image = Image.build [] in
    (Exec.run p image ~entry:"max" ~args:[ Ty.Vi a; Ty.Vi b ]).ret
  in
  Alcotest.(check (option value)) "max 3 7" (Some (Ty.Vi 7L)) (run 3L 7L);
  Alcotest.(check (option value)) "max 9 1" (Some (Ty.Vi 9L)) (run 9L 1L)

let test_mispredicated_counted () =
  let p = max_program () in
  let image = Image.build [] in
  let r = Exec.run p image ~entry:"max" ~args:[ Ty.Vi 3L; Ty.Vi 7L ] in
  (* one of the two movs never fires *)
  Alcotest.(check int) "not executed" 1 r.stats.Exec.not_executed;
  Alcotest.(check int) "executed" 3 r.stats.Exec.executed

(* Conditional store with null completion:
   if (a > 0) mem[g] = a;  return mem[g];  (g preset to 99) *)
let nullstore_program () =
  let open Builder in
  let b = create "ns.entry" in
  let a = read b 2 in
  let t = inst b ~imm:0L (Isa.Bin Ast.Gt) in
  arc b a t Isa.Op0;
  let addr = inst b (Isa.Geni 0x1000L) in
  (* guarded address and data: value if predicate true, null otherwise *)
  let ma = inst b ~pred:(t, true) Isa.Mov in
  arc b addr ma Isa.Op0;
  let md = inst b ~pred:(t, true) Isa.Mov in
  arc b a md Isa.Op0;
  let nl = inst b ~pred:(t, false) Isa.Null in
  let st = inst b (Isa.Store (Ty.W8, -1)) in
  arc b ma st Isa.Op0;
  arc b nl st Isa.Op0;
  arc b md st Isa.Op1;
  arc b nl st Isa.Op1;
  let ld = inst b (Isa.Load (Ty.I64, Ty.W8, -1)) in
  let addr2 = inst b (Isa.Geni 0x1000L) in
  arc b addr2 ld Isa.Op0;
  let m = inst b Isa.Mov in
  arc b ld m Isa.Op0;
  write b 1 [ m ];
  let _ = inst b (Isa.Branch Isa.Xret) in
  let blk = finish b in
  { Block.globals = [ Ast.global "g" ~init:[| (Ty.W8, 99L) |] 8 ];
    funcs = [ { Block.fname = "ns"; entry = "ns.entry"; blocks = [ blk ] } ] }

let test_null_store_taken () =
  let p = nullstore_program () in
  Block.validate_program p;
  let image = Image.build p.Block.globals in
  let r = Exec.run p image ~entry:"ns" ~args:[ Ty.Vi 42L ] in
  Alcotest.(check (option value)) "stored value read back" (Some (Ty.Vi 42L)) r.ret;
  Alcotest.(check int) "one real store" 1 r.stats.Exec.stores_committed

let test_null_store_not_taken () =
  let p = nullstore_program () in
  let image = Image.build p.Block.globals in
  let r = Exec.run p image ~entry:"ns" ~args:[ Ty.Vi (-5L) ] in
  Alcotest.(check (option value)) "memory untouched" (Some (Ty.Vi 99L)) r.ret;
  Alcotest.(check int) "no real store" 0 r.stats.Exec.stores_committed

(* Fanout: one geni feeding 5 adds must grow mov instructions. *)
let test_fanout_tree () =
  let open Builder in
  let b = create "fan.entry" in
  let x = inst b (Isa.Geni 7L) in
  let adds =
    List.init 5 (fun _ ->
        let a = inst b ~imm:1L (Isa.Bin Ast.Add) in
        arc b x a Isa.Op0;
        a)
  in
  (* combine the five results so they are useful *)
  let rec combine = function
    | [ one ] -> one
    | a :: b2 :: rest ->
      let s = inst b (Isa.Bin Ast.Add) in
      arc b a s Isa.Op0;
      arc b b2 s Isa.Op1;
      combine (rest @ [ s ])
    | [] -> assert false
  in
  let total = combine adds in
  write b 1 [ total ];
  let _ = inst b (Isa.Branch Isa.Xret) in
  let blk = finish b in
  let movs =
    Array.fold_left
      (fun acc (i : Isa.inst) -> if i.Isa.op = Isa.Mov then acc + 1 else acc)
      0 blk.Block.insts
  in
  Alcotest.(check int) "5 consumers need 3 movs" 3 movs;
  let p = { Block.globals = []; funcs = [ { Block.fname = "fan"; entry = "fan.entry"; blocks = [ blk ] } ] } in
  Block.validate_program p;
  let image = Image.build [] in
  let r = Exec.run p image ~entry:"fan" ~args:[] in
  Alcotest.(check (option value)) "result" (Some (Ty.Vi 40L)) r.ret

(* Store -> load forwarding inside one block, LSID order. *)
let test_intrablock_forwarding () =
  let open Builder in
  let b = create "fwd.entry" in
  let addr = inst b (Isa.Geni 0x1000L) in
  let data = inst b (Isa.Geni 1234L) in
  let st = inst b (Isa.Store (Ty.W8, -1)) in
  arc b addr st Isa.Op0;
  arc b data st Isa.Op1;
  let addr2 = inst b (Isa.Geni 0x1000L) in
  let ld = inst b (Isa.Load (Ty.I64, Ty.W8, -1)) in
  arc b addr2 ld Isa.Op0;
  let m = inst b Isa.Mov in
  arc b ld m Isa.Op0;
  write b 1 [ m ];
  let _ = inst b (Isa.Branch Isa.Xret) in
  let blk = finish b in
  let p =
    { Block.globals = [ Ast.global "g" 8 ];
      funcs = [ { Block.fname = "fwd"; entry = "fwd.entry"; blocks = [ blk ] } ] }
  in
  Block.validate_program p;
  let image = Image.build p.Block.globals in
  let r = Exec.run p image ~entry:"fwd" ~args:[] in
  Alcotest.(check (option value)) "forwarded" (Some (Ty.Vi 1234L)) r.ret

(* Validation must reject malformed blocks. *)
let test_validate_rejects () =
  let reject reason make =
    match make () with
    | exception Block.Invalid _ -> ()
    | _blk -> Alcotest.failf "expected rejection: %s" reason
  in
  reject "no exit" (fun () ->
      let b = Builder.create "bad1" in
      let x = Builder.inst b (Isa.Geni 1L) in
      Builder.write b 1 [ x ];
      Builder.finish b);
  reject "missing operand producer" (fun () ->
      let b = Builder.create "bad2" in
      let a = Builder.inst b (Isa.Bin Ast.Add) in
      Builder.write b 1 [ a ];
      let _ = Builder.inst b (Isa.Branch Isa.Xret) in
      Builder.finish b);
  reject "write without producer" (fun () ->
      let b = Builder.create "bad3" in
      let x = Builder.inst b (Isa.Geni 1L) in
      Builder.write b 1 [ x ];
      Builder.write b 2 [];
      let _ = Builder.inst b (Isa.Branch Isa.Xret) in
      Builder.finish b)

let test_too_many_insts_rejected () =
  match
    let b = Builder.create "big" in
    let prev = ref (Builder.inst b (Isa.Geni 1L)) in
    for _ = 1 to 130 do
      let nxt = Builder.inst b ~imm:1L (Isa.Bin Ast.Add) in
      Builder.arc b !prev nxt Isa.Op0;
      prev := nxt
    done;
    Builder.write b 1 [ !prev ];
    let _ = Builder.inst b (Isa.Branch Isa.Xret) in
    Builder.finish b
  with
  | exception Block.Invalid (_, reason) ->
    Alcotest.(check bool) "size reason" true
      (String.length reason >= 4 && String.sub reason 0 4 = "too ")
  | _ -> Alcotest.fail "expected Invalid"

(* Block composition stats on the sum loop. *)
let test_composition_stats () =
  let p = sum_program () in
  let image = Image.build [] in
  let r = Exec.run p image ~entry:"sum" ~args:[ Ty.Vi 10L ] in
  let s = r.stats in
  Alcotest.(check int) "fetched = executed + squashed" s.Exec.fetched
    (s.Exec.executed + s.Exec.not_executed);
  Alcotest.(check bool) "some control" true (s.Exec.k_control > 0);
  Alcotest.(check bool) "some tests" true (s.Exec.k_test > 0);
  Alcotest.(check bool) "reads fetched" true (s.Exec.reads_fetched > 0);
  Alcotest.(check bool) "writes committed" true (s.Exec.writes_committed > 0)

(* Calls: callee computes, caller resumes. *)
let call_program () =
  let open Builder in
  (* callee double: r1 = r2 * 2 *)
  let dbl =
    let b = create "dbl.entry" in
    let a = read b 2 in
    let m = inst b ~imm:2L (Isa.Bin Ast.Mul) in
    arc b a m Isa.Op0;
    write b 1 [ m ];
    let _ = inst b (Isa.Branch Isa.Xret) in
    finish b
  in
  (* main: r1 = dbl(arg) + 1 *)
  let entry =
    let b = create "main.entry" in
    let a = read b 2 in
    let m = inst b Isa.Mov in
    arc b a m Isa.Op0;
    write b 2 [ m ];
    let _ = inst b (Isa.Branch (Isa.Xcall ("dbl", "main.ret"))) in
    finish b
  in
  let after =
    let b = create "main.ret" in
    let rv = read b 1 in
    let inc = inst b ~imm:1L (Isa.Bin Ast.Add) in
    arc b rv inc Isa.Op0;
    write b 1 [ inc ];
    let _ = inst b (Isa.Branch Isa.Xret) in
    finish b
  in
  {
    Block.globals = [];
    funcs =
      [
        { Block.fname = "main"; entry = "main.entry"; blocks = [ entry; after ] };
        { Block.fname = "dbl"; entry = "dbl.entry"; blocks = [ dbl ] };
      ];
  }

let test_call_return () =
  let p = call_program () in
  Block.validate_program p;
  let image = Image.build [] in
  let r = Exec.run p image ~entry:"main" ~args:[ Ty.Vi 20L ] in
  Alcotest.(check (option value)) "dbl(20)+1" (Some (Ty.Vi 41L)) r.ret

(* Unvalidated programs naming a missing function: [Exec.run] reports
   them as [Stuck], never as a bare [Not_found]. *)
let test_unknown_entry () =
  let p = call_program () in
  Alcotest.check_raises "unknown entry"
    (Exec.Stuck ("nosuch", "unknown function nosuch"))
    (fun () -> ignore (Exec.run p (Image.build []) ~entry:"nosuch" ~args:[]))

let test_unknown_callee () =
  let p = call_program () in
  (* drop the callee: main.entry now calls a function that does not exist *)
  let p =
    { p with Block.funcs = List.filter (fun f -> f.Block.fname = "main") p.funcs }
  in
  Alcotest.check_raises "unknown callee"
    (Exec.Stuck ("main.entry", "unknown function dbl"))
    (fun () -> ignore (Exec.run p (Image.build []) ~entry:"main" ~args:[ Ty.Vi 1L ]))

(* Malformed blocks that skip validation are reported as [Stuck] when
   they first execute: the executor indexes its per-block tables with
   these fields and keeps LSIDs and write slots in bitmasks. *)
let test_malformed_block_stuck () =
  let mk op targets = { Isa.op; pred = Isa.Unpred; imm = None; targets } in
  let run insts =
    let blk =
      { Block.label = "bad.entry"; reads = [||]; writes = [||];
        insts = Array.append insts [| mk (Isa.Branch Isa.Xret) [] |];
        placement = [||] }
    in
    let p =
      { Block.globals = [];
        funcs = [ { Block.fname = "main"; entry = "bad.entry"; blocks = [ blk ] } ] }
    in
    ignore (Exec.run p (Image.build []) ~entry:"main" ~args:[])
  in
  Alcotest.check_raises "LSID out of range"
    (Exec.Stuck ("bad.entry", "I0 LSID 40 out of range"))
    (fun () -> run [| mk (Isa.Load (Ty.I64, Ty.W8, 40)) [] |]);
  Alcotest.check_raises "target out of range"
    (Exec.Stuck ("bad.entry", "target I9 out of range"))
    (fun () -> run [| mk (Isa.Geni 1L) [ Isa.To_inst (9, Isa.Op0) ] |]);
  Alcotest.check_raises "write target out of range"
    (Exec.Stuck ("bad.entry", "write target W0 out of range"))
    (fun () -> run [| mk (Isa.Geni 1L) [ Isa.To_write 0 ] |])

let () =
  Alcotest.run "edge"
    [
      ( "exec",
        [
          Alcotest.test_case "sum loop" `Quick test_sum_loop;
          Alcotest.test_case "predicated select" `Quick test_predicated_select;
          Alcotest.test_case "mispredicated counted" `Quick test_mispredicated_counted;
          Alcotest.test_case "null store taken" `Quick test_null_store_taken;
          Alcotest.test_case "null store not taken" `Quick test_null_store_not_taken;
          Alcotest.test_case "intra-block forwarding" `Quick test_intrablock_forwarding;
          Alcotest.test_case "call/return" `Quick test_call_return;
          Alcotest.test_case "unknown entry is stuck" `Quick test_unknown_entry;
          Alcotest.test_case "unknown callee is stuck" `Quick test_unknown_callee;
          Alcotest.test_case "malformed block is stuck" `Quick test_malformed_block_stuck;
          Alcotest.test_case "composition stats" `Quick test_composition_stats;
        ] );
      ( "builder",
        [
          Alcotest.test_case "fanout tree" `Quick test_fanout_tree;
          Alcotest.test_case "validation rejects" `Quick test_validate_rejects;
          Alcotest.test_case "oversized block rejected" `Quick test_too_many_insts_rejected;
        ] );
    ]
