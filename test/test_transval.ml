(* Translation validator: seeded miscompiles must be refuted with the
   guilty pass named, and the untouched pipeline must come back clean.

   Each mutation edits one pass's output inside a compilation witness and
   re-runs the corresponding checker (or the whole per-function validation
   when attribution across checkers is the point).  The clean-sweep test
   is the no-false-positive half: every Simple-suite benchmark at the
   compiled preset, on both backends, with zero refutations.  Block
   liveness is pinned to a verbatim copy of its label-keyed predecessor,
   and two domains validating at once must match a sequential run. *)

module Ast = Trips_tir.Ast
module Ty = Trips_tir.Ty
module Cfg = Trips_tir.Cfg
module Lower = Trips_tir.Lower
module Opt = Trips_tir.Opt
module Transform = Trips_tir.Transform
module Image = Trips_tir.Image
module Block = Trips_edge.Block
module Isa = Trips_edge.Isa
module H = Trips_compiler.Hyperblock
module Driver = Trips_compiler.Driver
module Witness = Trips_compiler.Witness
module T = Trips_analysis.Transval
module Diag = Trips_analysis.Diag
module Registry = Trips_workloads.Registry
module Cg = Trips_risc.Codegen
module Risa = Trips_risc.Isa

let copy_func (f : Cfg.func) : Cfg.func =
  { f with Cfg.blocks = List.map (fun (b : Cfg.block) -> { b with Cfg.ins = b.ins }) f.blocks }

let sym_of layout s =
  match List.assoc_opt s layout with Some a -> Int64.of_int a | None -> 0L

(* Witnessed compilation of one benchmark, mirroring Driver.run_validation
   so mutation tests can edit the intermediates before checking. *)
let witnesses preset name =
  let b = Registry.find name in
  let p = b.Registry.program in
  let p = if preset.Driver.inline_pass then Transform.inline p else p in
  let p =
    if preset.Driver.unroll > 1 then Transform.unroll_program ~factor:preset.Driver.unroll p
    else p
  in
  let cfg = Lower.program p in
  if preset.Driver.optimize then Opt.run_program cfg;
  let layout = Image.layout cfg.Cfg.globals in
  (sym_of layout, List.map (fun f -> snd (Driver.compile_func_wit preset ~layout f)) cfg.Cfg.funcs)

let refuted_stages reports =
  List.sort_uniq compare
    (List.filter_map
       (fun (r : T.report) ->
         if r.T.r_verdict = T.Vrefuted then Some r.T.r_stage else None)
       reports)

let expect_refuted what stage reports =
  match refuted_stages reports with
  | [] -> Alcotest.failf "%s: miscompile not refuted" what
  | ss ->
    if not (List.mem stage ss) then
      Alcotest.failf "%s: refuted in %s, expected %s" what (String.concat "," ss)
        stage

let expect_only what stage reports =
  expect_refuted what stage reports;
  match List.filter (fun s -> s <> stage) (refuted_stages reports) with
  | [] -> ()
  | ss ->
    Alcotest.failf "%s: collateral refutation in %s" what (String.concat "," ss)

(* -- optimization ---------------------------------------------------- *)

let opt_setup name =
  let b = Registry.find name in
  let cfg = Lower.program b.Registry.program in
  let pres = List.map copy_func cfg.Cfg.funcs in
  Opt.run_program cfg;
  (sym_of (Image.layout cfg.Cfg.globals), pres, cfg.Cfg.funcs)

let test_opt_const () =
  let sym, pres, posts = opt_setup "ct" in
  let hit = ref false in
  let perturb i =
    if !hit then i
    else
      Cfg.map_ins_operands
        (fun o ->
          match o with
          | Cfg.Ci n when not !hit ->
            hit := true;
            Cfg.Ci (Int64.add n 1L)
          | o -> o)
        i
  in
  List.iter
    (fun (f : Cfg.func) ->
      List.iter
        (fun (bl : Cfg.block) ->
          if not !hit then bl.Cfg.ins <- List.map perturb bl.Cfg.ins)
        f.Cfg.blocks)
    posts;
  if not !hit then Alcotest.fail "no integer constant to perturb";
  let reports =
    List.concat
      (List.map2
         (fun pre (post : Cfg.func) -> T.check_opt ~sym ~fname:post.Cfg.name pre post)
         pres posts)
  in
  expect_only "perturbed constant" "opt" reports

let test_opt_branch_swap () =
  let sym, pres, posts = opt_setup "ct" in
  let hit = ref false in
  List.iter
    (fun (f : Cfg.func) ->
      List.iter
        (fun (bl : Cfg.block) ->
          if not !hit then
            match bl.Cfg.term with
            | Cfg.Br (c, l1, l2) when l1 <> l2 ->
              hit := true;
              bl.Cfg.term <- Cfg.Br (c, l2, l1)
            | _ -> ())
        f.Cfg.blocks)
    posts;
  if not !hit then Alcotest.fail "no two-way branch to swap";
  let reports =
    List.concat
      (List.map2
         (fun pre (post : Cfg.func) -> T.check_opt ~sym ~fname:post.Cfg.name pre post)
         pres posts)
  in
  expect_only "swapped branch arms" "opt" reports

(* Random straight-line blocks in which a result register of an
   available expression is redefined before the expression recurs, the
   one case where [Opt.cse] must drop an entry because its result, not an
   operand, changed.  Nothing the compiler lowers builds this shape, so
   the blocks are made here: [a op b] into [d], filler, [d] redefined,
   filler, [a op b] again into [d2], then every temporary stored.
   Parameters v0..v3 are never written, so only the result kill can
   retire [a op b]; a [cse] that misses it rewrites [d2] as a copy of the
   stale [d], which the validator refutes. *)
let result_redefinition_func rng k =
  let module Rng = Trips_util.Rng in
  let nparams = 4 and ntemps = 6 in
  let ops = [| Ast.Add; Ast.Sub; Ast.Mul; Ast.Xor; Ast.And; Ast.Or |] in
  let op () = ops.(Rng.int rng (Array.length ops)) in
  let defined = ref [] in
  let param () = Cfg.Reg (Rng.int rng nparams) in
  let source () =
    match Rng.int rng 3 with
    | 0 -> Cfg.Ci (Int64.of_int (Rng.int rng 16))
    | 1 when !defined <> [] -> Cfg.Reg (List.nth !defined (Rng.int rng (List.length !defined)))
    | _ -> param ()
  in
  let temp () = nparams + Rng.int rng ntemps in
  let def d ins =
    if not (List.mem d !defined) then defined := d :: !defined;
    ins
  in
  let filler () =
    List.init (Rng.int rng 4) (fun _ ->
        let d = temp () in
        match Rng.int rng 4 with
        | 0 -> def d (Cfg.Mov (d, source ()))
        | 1 -> def d (Cfg.Un (Ast.Neg, d, source ()))
        | _ -> def d (Cfg.Bin (op (), d, source (), source ())))
  in
  let eop = op () and a = param () in
  let b = if Rng.bool rng then param () else Cfg.Ci (Int64.of_int (Rng.int rng 16)) in
  let d = temp () in
  let d2 = if Rng.bool rng then d else temp () in
  let pre = filler () in
  let first = def d (Cfg.Bin (eop, d, a, b)) in
  let mid1 = filler () in
  let redefine =
    def d
      (match Rng.int rng 3 with
      | 0 -> Cfg.Mov (d, source ())
      | 1 -> Cfg.Un (Ast.Not, d, source ())
      | _ -> Cfg.Bin (op (), d, source (), source ()))
  in
  let mid2 = filler () in
  let again = def d2 (Cfg.Bin (eop, d2, a, b)) in
  let post = filler () in
  let stores =
    List.map (fun r -> Cfg.Store (Ty.W8, Cfg.Sym "out", 8 * r, Cfg.Reg r)) (List.sort compare !defined)
  in
  let name = Printf.sprintf "redef%d" k in
  { Cfg.name; params = List.init nparams (fun r -> (r, Ty.I64)); ret = Some Ty.I64;
    blocks =
      [ { Cfg.label = name ^ ".entry";
          ins = pre @ (first :: mid1) @ (redefine :: mid2) @ (again :: post) @ stores;
          term = Cfg.Ret (Some (Cfg.Reg d2)) } ];
    next_vreg = nparams + ntemps }

let cse_reports cse =
  let rng = Trips_util.Rng.create 0xC5EL in
  List.init 100 (fun k ->
      let pre = result_redefinition_func rng k in
      let post = copy_func pre in
      cse post;
      T.check_opt ~sym:(fun _ -> 0x1000L) ~fname:pre.Cfg.name pre post)
  |> List.concat

let test_opt_cse_result_redefined () =
  let reports = cse_reports Opt.cse in
  Alcotest.(check int) "one report per block" 100 (List.length reports);
  List.iter
    (fun (r : T.report) ->
      if r.T.r_verdict <> T.Vproved then
        Alcotest.failf "%s: cse output %s, not proved" r.T.r_fname
          (T.verdict_name r.T.r_verdict))
    reports

(* -- block splitting -------------------------------------------------- *)

let test_split_drop () =
  let _, wits = witnesses Driver.compiled "ct" in
  let hit = ref false in
  List.iter
    (fun (w : Driver.witness) ->
      List.iter
        (fun (bl : Cfg.block) ->
          if (not !hit) && bl.Cfg.ins <> [] then begin
            hit := true;
            bl.Cfg.ins <- List.tl bl.Cfg.ins
          end)
        w.Driver.w_split.Cfg.blocks)
    wits;
  if not !hit then Alcotest.fail "no instruction to drop";
  let reports =
    List.concat_map
      (fun (w : Driver.witness) ->
        Witness.check_split ~fname:w.Driver.w_fn.Cfg.name w.Driver.w_fn
          w.Driver.w_split)
      wits
  in
  expect_only "dropped instruction" "split" reports

(* -- hyperblock formation --------------------------------------------- *)

let rec mutate_items f = function
  | [] -> None
  | it :: rest -> (
    match f it with
    | Some it' -> Some (it' :: rest)
    | None -> (
      match it with
      | H.If (c, t, e) -> (
        match mutate_items f t with
        | Some t' -> Some (H.If (c, t', e) :: rest)
        | None -> (
          match mutate_items f e with
          | Some e' -> Some (H.If (c, t, e') :: rest)
          | None -> Option.map (fun r -> it :: r) (mutate_items f rest)))
      | _ -> Option.map (fun r -> it :: r) (mutate_items f rest)))

let mutate_formation what f =
  let _, wits = witnesses Driver.compiled "ct" in
  let hit = ref false in
  let reports =
    List.concat_map
      (fun (w : Driver.witness) ->
        let hf = w.Driver.w_hf in
        let hblocks =
          List.map
            (fun (hb : H.hblock) ->
              if !hit then hb
              else
                match mutate_items f hb.H.body with
                | Some body ->
                  hit := true;
                  { hb with H.body }
                | None -> hb)
            hf.H.hblocks
        in
        Witness.check_formation ~fname:w.Driver.w_fn.Cfg.name w.Driver.w_split
          { hf with H.hblocks })
      wits
  in
  if not !hit then Alcotest.failf "%s: no mutation site" what;
  expect_only what "hyperblock" reports

let test_form_swap_arms () =
  mutate_formation "swapped if-conversion arms" (function
    | H.If (c, t, e) when t <> e -> Some (H.If (c, e, t))
    | _ -> None)

let test_form_drop_ins () =
  mutate_formation "dropped formed instruction" (function
    | H.Ins _ -> Some (H.Lbl "dropped")
    | _ -> None)

(* -- register allocation ---------------------------------------------- *)

let test_ra_write_set () =
  let _, wits = witnesses Driver.compiled "ct" in
  let hit = ref false in
  let reports =
    List.concat_map
      (fun (w : Driver.witness) ->
        let ra = w.Driver.w_ra in
        if not !hit then
          Hashtbl.iter
            (fun l ws ->
              if (not !hit) && ws <> [] then begin
                hit := true;
                Hashtbl.replace ra.Trips_compiler.Regalloc.write_set l (List.tl ws)
              end)
            ra.Trips_compiler.Regalloc.write_set;
        Witness.check_regalloc ~fname:w.Driver.w_fn.Cfg.name w.Driver.w_hf ra)
      wits
  in
  if not !hit then Alcotest.fail "no write set to shrink";
  expect_only "dropped register write" "regalloc" reports

let test_ra_collision () =
  let _, wits = witnesses Driver.compiled "ct" in
  let hit = ref false in
  let reports =
    List.concat_map
      (fun (w : Driver.witness) ->
        let ra = w.Driver.w_ra in
        if not !hit then
          Hashtbl.iter
            (fun _l vs ->
              if not !hit then
                match vs with
                | v1 :: v2 :: _
                  when Hashtbl.find_opt ra.Trips_compiler.Regalloc.assign v1
                       <> Hashtbl.find_opt ra.Trips_compiler.Regalloc.assign v2 -> (
                  match Hashtbl.find_opt ra.Trips_compiler.Regalloc.assign v2 with
                  | Some r ->
                    hit := true;
                    Hashtbl.replace ra.Trips_compiler.Regalloc.assign v1 r
                  | None -> ())
                | _ -> ())
            ra.Trips_compiler.Regalloc.live_in;
        Witness.check_regalloc ~fname:w.Driver.w_fn.Cfg.name w.Driver.w_hf ra)
      wits
  in
  if not !hit then Alcotest.fail "no two live values to collide";
  expect_only "colliding register assignment" "regalloc" reports

(* -- dataflow conversion ---------------------------------------------- *)

let bump_imm (i : Isa.inst) =
  match i.Isa.imm with
  | Some n -> { i with Isa.imm = Some (Int64.add n 1L) }
  | None -> i

(* Mutate the EDGE arrays and the pre-schedule snapshots identically, so
   the divergence is attributed to conversion, not scheduling. *)
let test_dataflow_imm () =
  let sym, wits = witnesses Driver.compiled "ct" in
  let w = List.hd wits in
  List.iter
    (fun (b : Block.t) ->
      Array.iteri (fun k i -> b.Block.insts.(k) <- bump_imm i) b.Block.insts;
      let pi, _, _ = List.assoc b.Block.label w.Driver.w_presched in
      Array.iteri (fun k i -> pi.(k) <- bump_imm i) pi)
    w.Driver.w_bf.Block.blocks;
  expect_only "perturbed immediates" "dataflow-convert"
    (Driver.validate_func ~sym w)

let test_dataflow_wreg () =
  let sym, wits = witnesses Driver.compiled "ct" in
  let w = List.hd wits in
  let hit = ref false in
  List.iter
    (fun (b : Block.t) ->
      if (not !hit) && Array.length b.Block.writes > 0 then begin
        hit := true;
        let wr = b.Block.writes.(0) in
        b.Block.writes.(0) <- { Block.wreg = (wr.Block.wreg + 1) mod 128 };
        let _, _, pw = List.assoc b.Block.label w.Driver.w_presched in
        pw.(0) <- b.Block.writes.(0)
      end)
    w.Driver.w_bf.Block.blocks;
  if not !hit then Alcotest.fail "no write slot to retarget";
  expect_only "retargeted write slot" "dataflow-convert"
    (Driver.validate_func ~sym w)

(* -- scheduling -------------------------------------------------------- *)

let test_schedule_mutation () =
  let _, wits = witnesses Driver.compiled "ct" in
  let w = List.hd wits in
  List.iter
    (fun (b : Block.t) ->
      Array.iteri (fun k i -> b.Block.insts.(k) <- bump_imm i) b.Block.insts)
    w.Driver.w_bf.Block.blocks;
  expect_refuted "post-schedule mutation" "schedule"
    (T.check_schedule ~fname:w.Driver.w_fn.Cfg.name w.Driver.w_presched
       w.Driver.w_bf)

(* -- RISC backend ------------------------------------------------------ *)

let risc_reports ~mutate name =
  let b = Registry.find name in
  let prog, wits, layout = Cg.compile_witnessed b.Registry.program in
  let sym = sym_of layout in
  mutate prog;
  List.concat_map
    (fun (fname, (w : Cg.fwitness)) ->
      let rf = List.find (fun (f : Risa.func) -> f.Risa.fname = fname) prog.Risa.funcs in
      let cls v = w.Cg.wf_cls.(v) = Cg.Cf_ in
      let loc v =
        match w.Cg.wf_assign.(v) with
        | Cg.Reg r -> T.Lreg r
        | Cg.Spill s -> T.Lspill s
      in
      T.check_risc_func ~sym ~fname ~cls ~loc ~frame:w.Cg.wf_frame
        ~has_frame:w.Cg.wf_has_frame w.Cg.wf_cfg rf)
    wits

let test_risc_op_flip () =
  let hit = ref false in
  let reports =
    risc_reports "ct" ~mutate:(fun (prog : Risa.program) ->
        List.iter
          (fun (f : Risa.func) ->
            Array.iteri
              (fun k i ->
                if not !hit then
                  match i with
                  | Risa.Op (Ast.Add, d, a, b) ->
                    hit := true;
                    f.Risa.code.(k) <- Risa.Op (Ast.Sub, d, a, b)
                  | Risa.Opi (Ast.Add, d, a, n) ->
                    hit := true;
                    f.Risa.code.(k) <- Risa.Opi (Ast.Sub, d, a, n)
                  | _ -> ())
              f.Risa.code)
          prog.Risa.funcs)
  in
  if not !hit then Alcotest.fail "no add to flip";
  expect_only "flipped RISC opcode" "risc" reports

let test_risc_branch_swap () =
  let hit = ref false in
  let reports =
    risc_reports "ct" ~mutate:(fun (prog : Risa.program) ->
        List.iter
          (fun (f : Risa.func) ->
            Array.iteri
              (fun k i ->
                if not !hit then
                  match i with
                  | Risa.Bc (r, t, fl) when t <> fl ->
                    hit := true;
                    f.Risa.code.(k) <- Risa.Bc (r, fl, t)
                  | _ -> ())
              f.Risa.code)
          prog.Risa.funcs)
  in
  if not !hit then Alcotest.fail "no conditional branch to swap";
  expect_only "swapped RISC branch" "risc" reports

(* -- no false positives ------------------------------------------------ *)

let test_clean_edge () =
  List.iter
    (fun (b : Registry.bench) ->
      let reports, _ = Driver.validate Driver.compiled b.Registry.program in
      let s = T.summarize reports in
      if s.T.n_refuted > 0 then
        Alcotest.failf "%s: %d spurious refutation(s)" b.Registry.name
          s.T.n_refuted)
    Registry.simple_suite

let test_clean_risc () =
  List.iter
    (fun (b : Registry.bench) ->
      let reports = risc_reports b.Registry.name ~mutate:(fun _ -> ()) in
      let s = T.summarize reports in
      if s.T.n_refuted > 0 then
        Alcotest.failf "%s/RISC: %d spurious refutation(s)" b.Registry.name
          s.T.n_refuted)
    Registry.simple_suite

(* -- block liveness against the label-keyed original ------------------ *)

module IS = Set.Make (Int)

(* [Transval.cfg_live_out] as it was before blocks were indexed by
   position: label-keyed tables and a forward round-robin sweep.  Kept
   verbatim as the reference the array version must match. *)
let table_live_out (f : Cfg.func) =
  let op_regs = List.filter_map (function Cfg.Reg v -> Some v | _ -> None) in
  let gen = Hashtbl.create 16 and kill = Hashtbl.create 16 in
  List.iter
    (fun (b : Cfg.block) ->
      let g = ref IS.empty and k = ref IS.empty in
      let use v = if not (IS.mem v !k) then g := IS.add v !g in
      let def v = k := IS.add v !k in
      List.iter
        (fun i ->
          List.iter use (op_regs (Cfg.uses i));
          List.iter def (Cfg.defs i))
        b.Cfg.ins;
      List.iter use (op_regs (Cfg.term_uses b.Cfg.term));
      Hashtbl.replace gen b.Cfg.label !g;
      Hashtbl.replace kill b.Cfg.label !k)
    f.Cfg.blocks;
  let live_in = Hashtbl.create 16 and live_out = Hashtbl.create 16 in
  let get tbl l = match Hashtbl.find_opt tbl l with Some s -> s | None -> IS.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (b : Cfg.block) ->
        let out =
          List.fold_left
            (fun acc s -> IS.union acc (get live_in s))
            IS.empty
            (Cfg.successors b.Cfg.term)
        in
        let inn =
          IS.union (get gen b.Cfg.label) (IS.diff out (get kill b.Cfg.label))
        in
        if not (IS.equal out (get live_out b.Cfg.label)) then begin
          Hashtbl.replace live_out b.Cfg.label out;
          changed := true
        end;
        if not (IS.equal inn (get live_in b.Cfg.label)) then begin
          Hashtbl.replace live_in b.Cfg.label inn;
          changed := true
        end)
      f.Cfg.blocks
  done;
  fun l -> get live_out l

(* The functions the validator takes liveness of at a preset: the
   lowered program before local optimization, and the front end's
   output. *)
let liveness_funcs preset (p : Ast.program) =
  let q = if preset.Driver.inline_pass then Transform.inline p else p in
  let q =
    if preset.Driver.unroll > 1 then Transform.unroll_program ~factor:preset.Driver.unroll q
    else q
  in
  (Lower.program q).Cfg.funcs @ (Driver.front_end preset p).Cfg.funcs

let liveness_mismatches (p : Ast.program) =
  List.concat_map
    (fun preset ->
      List.concat_map
        (fun (f : Cfg.func) ->
          let live = T.cfg_live_out f and reference = table_live_out f in
          List.filter_map
            (fun (b : Cfg.block) ->
              let l = b.Cfg.label in
              if IS.equal (live l) (reference l) then None
              else Some (Printf.sprintf "%s %s/%s" preset.Driver.pname f.Cfg.name l))
            f.Cfg.blocks)
        (liveness_funcs preset p))
    (List.map Trips_workloads.Preset.driver Trips_workloads.Preset.all)

let test_liveness_registry () =
  List.iter
    (fun (b : Registry.bench) ->
      Alcotest.(check (list string)) b.Registry.name [] (liveness_mismatches b.Registry.program))
    Registry.all

let test_liveness_fuzz () =
  for seed = 1 to 50 do
    Alcotest.(check (list string)) (Printf.sprintf "fuzz seed %d" seed) []
      (liveness_mismatches (Trips_fuzz.Gen.gen_program ~seed ()))
  done

(* -- concurrent validation ------------------------------------------- *)

(* The programs of the benchmark's compile workload. *)
let compile_set =
  [ "802.11a"; "rspeed"; "bitmnp"; "matrix01"; "canrdr"; "matrix"; "pktflow";
    "text"; "dither"; "tblook"; "perlbmk"; "mcf"; "crafty"; "parser"; "fft";
    "ct"; "a2time"; "gzip"; "equake"; "applu" ]

let report_line (r : T.report) =
  Printf.sprintf "%s %s %s %s %d %s" r.T.r_stage r.T.r_fname r.T.r_block
    (T.verdict_name r.T.r_verdict) r.T.r_paths
    (String.concat "; " (List.map Diag.to_line r.T.r_diags))

let validate_compile_set () =
  List.concat_map
    (fun name ->
      List.map report_line (fst (Driver.validate Driver.compiled (Registry.find name).Registry.program)))
    compile_set

(* Each domain interns symbolic terms into its own tables, so two domains
   validating at once get the reports of a sequential run. *)
let test_two_domains () =
  let sequential = validate_compile_set () in
  let d1 = Domain.spawn validate_compile_set in
  let d2 = Domain.spawn validate_compile_set in
  let r1 = Domain.join d1 in
  let r2 = Domain.join d2 in
  Alcotest.(check (list string)) "first domain" sequential r1;
  Alcotest.(check (list string)) "second domain" sequential r2

(* -- diagnostics ------------------------------------------------------- *)

let test_diag_dedup () =
  let d ?inst msg = Diag.make ~pass:"transval" ~fname:"f" ~block:"b" ?inst "miscompile" msg in
  let ds = [ d "x"; d "y"; d ~inst:3 "x"; d "x" ] in
  match Diag.dedup ds with
  | [ a; b ] ->
    Alcotest.(check int) "same-location findings collapse" 3 a.Diag.count;
    Alcotest.(check string) "first occurrence wins" "x" a.Diag.msg;
    Alcotest.(check (option int)) "distinct location kept" (Some 3) b.Diag.inst;
    Alcotest.(check int) "singleton" 1 b.Diag.count
  | ds -> Alcotest.failf "expected 2 deduped findings, got %d" (List.length ds)

let () =
  Alcotest.run "transval"
    [
      ( "mutations",
        [
          Alcotest.test_case "opt: constant perturbed" `Quick test_opt_const;
          Alcotest.test_case "opt: branch arms swapped" `Quick test_opt_branch_swap;
          Alcotest.test_case "split: instruction dropped" `Quick test_split_drop;
          Alcotest.test_case "formation: if arms swapped" `Quick test_form_swap_arms;
          Alcotest.test_case "formation: instruction dropped" `Quick test_form_drop_ins;
          Alcotest.test_case "regalloc: write set shrunk" `Quick test_ra_write_set;
          Alcotest.test_case "regalloc: colliding colors" `Quick test_ra_collision;
          Alcotest.test_case "dataflow: immediates perturbed" `Quick test_dataflow_imm;
          Alcotest.test_case "dataflow: write slot retargeted" `Quick test_dataflow_wreg;
          Alcotest.test_case "schedule: arrays mutated" `Quick test_schedule_mutation;
          Alcotest.test_case "risc: opcode flipped" `Quick test_risc_op_flip;
          Alcotest.test_case "risc: branch swapped" `Quick test_risc_branch_swap;
        ] );
      ( "clean",
        [
          Alcotest.test_case "simple suite proves (EDGE)" `Quick test_clean_edge;
          Alcotest.test_case "simple suite proves (RISC)" `Quick test_clean_risc;
          Alcotest.test_case "cse proves blocks that redefine a result" `Quick
            test_opt_cse_result_redefined;
        ] );
      ( "liveness",
        [
          Alcotest.test_case "array sweep matches the tables: registry" `Quick
            test_liveness_registry;
          Alcotest.test_case "array sweep matches the tables: fuzz" `Quick
            test_liveness_fuzz;
        ] );
      ( "domains",
        [ Alcotest.test_case "two domains validate the compile set" `Quick test_two_domains ]
      );
      ("diag", [ Alcotest.test_case "stable dedup" `Quick test_diag_dedup ]);
    ]
