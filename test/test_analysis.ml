(* Mutation tests for the EDGE static analyzer: compile realistic programs,
   break them in one specific way, and check the analyzer reports a finding
   of the matching diagnostic class.  Each mutation kind maps to a distinct
   class, and the unmutated programs must lint clean — together these pin
   down both the sensitivity and the false-positive rate of every pass. *)

open Trips_tir
open Trips_edge
open Trips_compiler
open Trips_analysis
open Ast.Infix

(* -- sample programs -------------------------------------------------- *)

(* Nested conditionals in a loop: if-conversion produces predicated
   hyperblocks with merges — material for path and liveness mutations. *)
let prog_classify =
  Ast.program
    [
      Ast.func "main" ~params:[ ("n", Ty.I64) ] ~ret:Ty.I64
        [
          set "small" (i 0);
          set "mid" (i 0);
          set "big" (i 0);
          for_ "k" (i 0) (v "n")
            [
              set "x" ((v "k" *: i 2654435761) &: i 1023);
              if_ (v "x" <: i 100)
                [ set "small" (v "small" +: i 1) ]
                [
                  if_ (v "x" <: i 600)
                    [ set "mid" (v "mid" +: v "x") ]
                    [ set "big" (v "big" +: i 2) ];
                ];
            ];
          ret ((v "small" <<: i 40) ^: (v "mid" <<: i 10) ^: v "big");
        ];
    ]

(* Dense memory traffic: blocks with several loads and stores — material
   for the LSID mutations. *)
let prog_mem =
  Ast.program
    ~globals:[ Ast.global "buf" 256 ]
    [
      Ast.func "main" ~ret:Ty.I64
        [
          for_ "k" (i 0) (i 32)
            [
              st8 (g "buf" +: (v "k" <<: i 3)) (v "k" *: i 3);
            ];
          set "acc" (i 0);
          for_ "k" (i 0) (i 31)
            [
              set "a" (ld8 (g "buf" +: (v "k" <<: i 3)));
              set "b" (ld8 (g "buf" +: ((v "k" +: i 1) <<: i 3)));
              st8 (g "buf" +: (v "k" <<: i 3)) (v "a" +: v "b");
              set "acc" (v "acc" +: v "a");
            ];
          ret (v "acc");
        ];
    ]

let compiled_classify = lazy (Driver.compile Driver.compiled prog_classify)
let compiled_mem = lazy (Driver.compile Driver.compiled prog_mem)

(* -- mutation machinery ----------------------------------------------- *)

(* Apply [f] to the first block that admits it, rebuilding the program
   around the mutated copy.  [f] must copy any array it edits: untouched
   blocks are shared with the original program. *)
let mutate (p : Block.program) (f : Block.t -> Block.t option) : Block.program =
  let applied = ref false in
  let funcs =
    List.map
      (fun (fn : Block.func) ->
        {
          fn with
          Block.blocks =
            List.map
              (fun b ->
                if !applied then b
                else
                  match f b with
                  | Some b' ->
                    applied := true;
                    b'
                  | None -> b)
              fn.Block.blocks;
        })
      p.Block.funcs
  in
  if not !applied then Alcotest.fail "no block admits this mutation";
  { p with Block.funcs }

let with_insts (b : Block.t) edit =
  let insts = Array.copy b.Block.insts in
  match edit insts with true -> Some { b with Block.insts = insts } | false -> None

let expect_class prog cls =
  let ds = Analyzer.analyze_program prog in
  if not (Analyzer.has_class cls ds) then
    Alcotest.failf "expected a %s finding, got: %s%s" cls (Analyzer.summary ds)
      (String.concat "" (List.map (fun d -> "\n  " ^ Diag.to_line d) ds))

(* -- clean baselines --------------------------------------------------- *)

let test_clean () =
  List.iter
    (fun p ->
      let ds = Analyzer.analyze_program (Lazy.force p) in
      Alcotest.(check bool)
        "no errors or warnings on compiled output" false
        (Diag.failed ~strict:true ds))
    [ compiled_classify; compiled_mem ]

let test_driver_verify () =
  (* ~verify:true must accept its own output under every preset *)
  List.iter
    (fun preset ->
      ignore (Driver.compile ~verify:true preset prog_classify);
      ignore (Driver.compile ~verify:true preset prog_mem))
    (List.map Trips_workloads.Preset.driver Trips_workloads.Preset.all)

(* -- per-block structural mutations ------------------------------------ *)

(* 1. exit-path: strip the predicate from a predicated branch, so two
   branches fire on the paths where it was squashed before. *)
let test_exit_path () =
  let p =
    mutate (Lazy.force compiled_classify) (fun b ->
        with_insts b (fun insts ->
            let found = ref false in
            Array.iteri
              (fun idx (ins : Isa.inst) ->
                if not !found then
                  match (ins.Isa.op, ins.Isa.pred) with
                  | Isa.Branch _, (Isa.On_true _ | Isa.On_false _) ->
                    insts.(idx) <- { ins with Isa.pred = Isa.Unpred };
                    found := true
                  | _ -> ())
              insts;
            !found))
  in
  expect_class p "exit-path"

(* 2. lsid-dup: give two memory operations of one block the same LSID. *)
let relabel_lsid lsid (op : Isa.opcode) =
  match op with
  | Isa.Load (ty, w, _) -> Isa.Load (ty, w, lsid)
  | Isa.Store (w, _) -> Isa.Store (w, lsid)
  | op -> op

let test_lsid_dup () =
  let p =
    mutate (Lazy.force compiled_mem) (fun b ->
        with_insts b (fun insts ->
            let mems = ref [] in
            Array.iteri
              (fun idx (ins : Isa.inst) ->
                match ins.Isa.op with
                | Isa.Load (_, _, l) | Isa.Store (_, l) -> mems := (idx, l) :: !mems
                | _ -> ())
              insts;
            match List.rev !mems with
            | (_, l0) :: (j, _) :: _ ->
              insts.(j) <- { insts.(j) with Isa.op = relabel_lsid l0 insts.(j).Isa.op };
              true
            | _ -> false))
  in
  expect_class p "lsid-dup"

(* 3. lsid-range: an LSID past the 32-entry load/store queue. *)
let test_lsid_range () =
  let p =
    mutate (Lazy.force compiled_mem) (fun b ->
        with_insts b (fun insts ->
            let found = ref false in
            Array.iteri
              (fun idx (ins : Isa.inst) ->
                if not !found then
                  match ins.Isa.op with
                  | Isa.Load _ | Isa.Store _ ->
                    insts.(idx) <-
                      { ins with Isa.op = relabel_lsid Isa.max_lsids ins.Isa.op };
                    found := true
                  | _ -> ())
              insts;
            !found))
  in
  expect_class p "lsid-range"

(* 4. arity: reroute an operand onto the predicate port of an unpredicated
   consumer (and leave op0 starved). *)
let test_arity () =
  let p =
    mutate (Lazy.force compiled_classify) (fun b ->
        with_insts b (fun insts ->
            let found = ref false in
            Array.iteri
              (fun idx (ins : Isa.inst) ->
                if not !found then
                  let retarget = function
                    | Isa.To_inst (j, Isa.Op0)
                      when (not !found)
                           && insts.(j).Isa.pred = Isa.Unpred
                           && Isa.operand_arity insts.(j) >= 1 ->
                      found := true;
                      Isa.To_inst (j, Isa.OpPred)
                    | t -> t
                  in
                  insts.(idx) <- { ins with Isa.targets = List.map retarget ins.Isa.targets })
              insts;
            !found))
  in
  expect_class p "arity"

(* 5. port-conflict: a read slot delivering twice to the same port. *)
let test_port_conflict () =
  let p =
    mutate (Lazy.force compiled_classify) (fun b ->
        let reads = Array.copy b.Block.reads in
        let found = ref false in
        Array.iteri
          (fun ri (r : Block.read) ->
            if not !found then
              match r.Block.rtargets with
              | [ t ] ->
                reads.(ri) <- { r with Block.rtargets = [ t; t ] };
                found := true
              | _ -> ())
          reads;
        if !found then Some { b with Block.reads } else None)
  in
  expect_class p "port-conflict"

(* 6. write-producer: disconnect the sole producer of a write slot. *)
let test_write_producer () =
  let p =
    mutate (Lazy.force compiled_classify) (fun b ->
        (* producer tally per write slot *)
        let nw = Array.length b.Block.writes in
        if nw = 0 then None
        else begin
          let tally = Array.make nw 0 in
          let count = function
            | Isa.To_write w when w >= 0 && w < nw -> tally.(w) <- tally.(w) + 1
            | _ -> ()
          in
          Array.iter (fun (ins : Isa.inst) -> List.iter count ins.Isa.targets) b.Block.insts;
          Array.iter (fun (r : Block.read) -> List.iter count r.Block.rtargets) b.Block.reads;
          with_insts b (fun insts ->
              let found = ref false in
              Array.iteri
                (fun idx (ins : Isa.inst) ->
                  if not !found then
                    let keep = function
                      | Isa.To_write w when (not !found) && w >= 0 && w < nw && tally.(w) = 1 ->
                        found := true;
                        false
                      | _ -> true
                    in
                    insts.(idx) <- { ins with Isa.targets = List.filter keep ins.Isa.targets })
                insts;
              !found)
        end)
  in
  expect_class p "write-producer"

(* 7. fanout: three targets on one instruction. *)
let test_fanout () =
  let p =
    mutate (Lazy.force compiled_classify) (fun b ->
        with_insts b (fun insts ->
            let found = ref false in
            Array.iteri
              (fun idx (ins : Isa.inst) ->
                if not !found then
                  match ins.Isa.targets with
                  | [ t ] ->
                    insts.(idx) <- { ins with Isa.targets = [ t; t; t ] };
                    found := true
                  | _ -> ())
              insts;
            !found))
  in
  expect_class p "fanout"

(* 8. dead-code: an appended constant generator that feeds nothing. *)
let test_dead_code () =
  let p =
    mutate (Lazy.force compiled_classify) (fun b ->
        if Array.length b.Block.insts >= Isa.max_insts then None
        else begin
          let orphan =
            { Isa.op = Isa.Geni 42L; pred = Isa.Unpred; imm = None; targets = [] }
          in
          let b' =
            {
              b with
              Block.insts = Array.append b.Block.insts [| orphan |];
              placement = [||];
            }
          in
          Block.default_placement b';
          Some b'
        end)
  in
  expect_class p "dead-code"

(* 9. placement: a tile outside the 4x4 grid. *)
let test_placement () =
  let p =
    mutate (Lazy.force compiled_classify) (fun b ->
        if Array.length b.Block.placement = 0 then None
        else begin
          let placement = Array.copy b.Block.placement in
          placement.(0) <- Isa.num_ets + 3;
          Some { b with Block.placement }
        end)
  in
  expect_class p "placement"

(* -- dataflow deadlock -------------------------------------------------- *)

(* 10. deadlock: hand-build a block whose adder needs op0 from the true arm
   and op1 from the false arm of the same predicate — each path starves one
   port, so the adder can fire on no path. *)
let test_deadlock () =
  let ins op ?(pred = Isa.Unpred) targets =
    { Isa.op; pred; imm = None; targets }
  in
  let b =
    {
      Block.label = "dl.entry";
      reads = [||];
      writes = [| { Block.wreg = 1 } |];
      insts =
        [|
          ins (Isa.Geni 1L) [ Isa.To_inst (1, Isa.OpPred); Isa.To_inst (2, Isa.OpPred) ];
          ins (Isa.Geni 7L) ~pred:(Isa.On_true 0) [ Isa.To_inst (3, Isa.Op0) ];
          ins (Isa.Geni 9L) ~pred:(Isa.On_false 0) [ Isa.To_inst (3, Isa.Op1) ];
          ins (Isa.Bin Ast.Add) [ Isa.To_write 0 ];
          ins (Isa.Branch Isa.Xret) [];
        |];
      placement = [||];
    }
  in
  Block.default_placement b;
  let f = { Block.fname = "dl"; entry = "dl.entry"; blocks = [ b ] } in
  let ds = Analyzer.analyze_func f in
  if not (Analyzer.has_class "deadlock" ds) then
    Alcotest.failf "expected a deadlock finding, got: %s" (Analyzer.summary ds)

(* -- cross-block liveness mutations ------------------------------------- *)

let func_regs get (fn : Block.func) =
  List.fold_left
    (fun acc (b : Block.t) -> List.rev_append (get b) acc)
    [] fn.Block.blocks

let defs_of (b : Block.t) =
  Array.to_list (Array.map (fun (w : Block.write) -> w.Block.wreg) b.Block.writes)

let uses_of (b : Block.t) =
  Array.to_list (Array.map (fun (r : Block.read) -> r.Block.rreg) b.Block.reads)

(* a non-ABI register the function neither reads nor writes *)
let fresh_reg (fn : Block.func) =
  let taken = func_regs defs_of fn @ func_regs uses_of fn in
  let rec pick r =
    if r >= Isa.num_regs then Alcotest.fail "no fresh register"
    else if List.mem r taken then pick (r + 1)
    else r
  in
  pick 10

(* 11. use-before-def: a read of a register nothing ever writes. *)
let test_use_before_def () =
  let prog = Lazy.force compiled_classify in
  let fn = List.hd prog.Block.funcs in
  let r = fresh_reg fn in
  let p =
    mutate prog (fun b ->
        if Array.length b.Block.reads = 0 then None
        else begin
          let reads = Array.copy b.Block.reads in
          reads.(0) <- { reads.(0) with Block.rreg = r };
          Some { b with Block.reads }
        end)
  in
  expect_class p "use-before-def"

(* 12. dead-write: a write of a register nothing ever reads. *)
let test_dead_write () =
  let prog = Lazy.force compiled_classify in
  let fn = List.hd prog.Block.funcs in
  let r = fresh_reg fn in
  let p =
    mutate prog (fun b ->
        if Array.length b.Block.writes = 0 then None
        else begin
          let writes = Array.copy b.Block.writes in
          writes.(0) <- { Block.wreg = r };
          Some { b with Block.writes }
        end)
  in
  expect_class p "dead-write"

(* 13. branch-target: a jump to a label no function defines. *)
let test_branch_target () =
  let p =
    mutate (Lazy.force compiled_classify) (fun b ->
        with_insts b (fun insts ->
            let found = ref false in
            Array.iteri
              (fun idx (ins : Isa.inst) ->
                if not !found then
                  match ins.Isa.op with
                  | Isa.Branch (Isa.Xjump _) ->
                    insts.(idx) <-
                      { ins with Isa.op = Isa.Branch (Isa.Xjump "nowhere.block") };
                    found := true
                  | _ -> ())
              insts;
            !found))
  in
  expect_class p "branch-target"

(* -- reporting ---------------------------------------------------------- *)

let test_distinct_classes () =
  (* every mutation kind above is caught by its own diagnostic class *)
  let classes =
    [
      "exit-path"; "lsid-dup"; "lsid-range"; "arity"; "port-conflict";
      "write-producer"; "fanout"; "dead-code"; "placement"; "deadlock";
      "use-before-def"; "dead-write"; "branch-target";
    ]
  in
  Alcotest.(check int)
    "13 distinct classes" 13
    (List.length (List.sort_uniq compare classes))

let test_renderers () =
  let ds =
    [
      Diag.make ~fname:"f" ~block:"f.b" ~inst:3 ~fix:"do less" "exit-path" "two branches fire";
      Diag.make ~sev:Diag.Warning ~fname:"f" "dead-write" "r17 unused";
      Diag.make ~sev:Diag.Info "dead-code" "orphan";
    ]
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let txt = Diag.render_text ds in
  Alcotest.(check bool) "text mentions class" true (contains txt "exit-path");
  let json = Trips_util.Json.to_string (Diag.list_to_json ds) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("json mentions " ^ needle) true (contains json needle))
    [ "exit-path"; "dead-write"; "dead-code"; "error"; "warning"; "info" ]

let () =
  Alcotest.run "analysis"
    [
      ( "baseline",
        [
          Alcotest.test_case "compiled programs lint clean" `Quick test_clean;
          Alcotest.test_case "driver verify accepts own output" `Slow test_driver_verify;
        ] );
      ( "mutations",
        [
          Alcotest.test_case "exit-path" `Quick test_exit_path;
          Alcotest.test_case "lsid-dup" `Quick test_lsid_dup;
          Alcotest.test_case "lsid-range" `Quick test_lsid_range;
          Alcotest.test_case "arity" `Quick test_arity;
          Alcotest.test_case "port-conflict" `Quick test_port_conflict;
          Alcotest.test_case "write-producer" `Quick test_write_producer;
          Alcotest.test_case "fanout" `Quick test_fanout;
          Alcotest.test_case "dead-code" `Quick test_dead_code;
          Alcotest.test_case "placement" `Quick test_placement;
          Alcotest.test_case "deadlock" `Quick test_deadlock;
          Alcotest.test_case "use-before-def" `Quick test_use_before_def;
          Alcotest.test_case "dead-write" `Quick test_dead_write;
          Alcotest.test_case "branch-target" `Quick test_branch_target;
          Alcotest.test_case "distinct classes" `Quick test_distinct_classes;
          Alcotest.test_case "renderers" `Quick test_renderers;
        ] );
    ]
