module Ast = Trips_tir.Ast
module Cfg = Trips_tir.Cfg
module Lower = Trips_tir.Lower
module Opt = Trips_tir.Opt
module Transform = Trips_tir.Transform
module Image = Trips_tir.Image
module Block = Trips_edge.Block

type preset = {
  pname : string;
  inline_pass : bool;
  unroll : int;
  optimize : bool;
  budget : Hyperblock.budget;
}

let o0 =
  {
    pname = "O0";
    inline_pass = false;
    unroll = 1;
    optimize = false;
    budget = { Hyperblock.default_budget with max_ins = 40 };
  }

let compiled =
  {
    pname = "compiled";
    inline_pass = true;
    unroll = 2;
    optimize = true;
    budget = Hyperblock.default_budget;
  }

let hand =
  {
    pname = "hand";
    inline_pass = true;
    unroll = 8;
    optimize = true;
    budget = { Hyperblock.default_budget with max_ins = 110; tail_dup = 24 };
  }

let basic_blocks =
  {
    pname = "basic-blocks";
    inline_pass = true;
    unroll = 2;
    optimize = true;
    budget = Hyperblock.basic_block_budget;
  }

exception Verify_failed of string * Trips_analysis.Diag.t list

(* Post-pass self-check: run the static analyzer on what a pass just
   produced and name the pass if it introduced an error-level violation.
   Warnings (dead code, dead writes) are reported by `lint`, not here: a
   verification failure must mean the output is unrunnable. *)
let verify_stage ~stage ?known_funcs (bf : Block.func) =
  let ds =
    List.filter
      (fun (d : Trips_analysis.Diag.t) -> d.Trips_analysis.Diag.sev = Trips_analysis.Diag.Error)
      (Trips_analysis.Analyzer.analyze_func ?known_funcs bf)
  in
  if ds <> [] then raise (Verify_failed (stage, ds))

let verify_program ~stage (p : Block.program) =
  let ds =
    List.filter
      (fun (d : Trips_analysis.Diag.t) -> d.Trips_analysis.Diag.sev = Trips_analysis.Diag.Error)
      (Trips_analysis.Analyzer.analyze_program p)
  in
  if ds <> [] then raise (Verify_failed (stage, ds))

let copy_func (f : Cfg.func) : Cfg.func =
  {
    f with
    blocks = List.map (fun (b : Cfg.block) -> { b with Cfg.ins = b.ins }) f.blocks;
  }

(* Split oversized basic blocks into chains so that even budget-1 formation
   produces blocks the hardware can hold. *)
let split_large_blocks ~cap ~mem_cap (f : Cfg.func) =
  let counter = ref 0 in
  let fresh_label base =
    incr counter;
    Printf.sprintf "%s.split%d" base !counter
  in
  let is_mem = function Cfg.Load _ | Cfg.Store _ -> true | _ -> false in
  let rec split_block (b : Cfg.block) : Cfg.block list =
    let rec take n m acc = function
      | [] -> (List.rev acc, [])
      | rest when n <= 0 || m <= 0 -> (List.rev acc, rest)
      | i :: rest -> take (n - 1) (if is_mem i then m - 1 else m) (i :: acc) rest
    in
    let head, tail = take cap mem_cap [] b.ins in
    match tail with
    | [] -> [ b ]
    | _ ->
      let l2 = fresh_label b.label in
      let rest_block = { Cfg.label = l2; ins = tail; term = b.term } in
      { b with Cfg.ins = head; term = Cfg.Jmp l2 } :: split_block rest_block
  in
  f.blocks <- List.concat_map split_block f.blocks

type witness = {
  w_fn : Cfg.func;  (* post-opt input, before splitting *)
  w_split : Cfg.func;  (* after split_large_blocks *)
  w_hf : Hyperblock.hfunc;
  w_ra : Regalloc.t;
  w_prerelax : (string * Block.t) list;  (* blocks as built, pre LSID relax *)
  w_relaxed : int;  (* flipped load/store LSID pairs *)
  w_presched :
    (string * (Trips_edge.Isa.inst array * Block.read array * Block.write array)) list;
  w_bf : Block.func;
}

let compile_func_wit ?(verify = false) ?(relax = true) preset ~layout (fn : Cfg.func) :
    Block.func * witness =
  let rec attempt budget cap =
    let fn' = copy_func fn in
    split_large_blocks ~cap ~mem_cap:(budget.Hyperblock.max_mem - 4 |> max 4) fn';
    match
      let hf = Hyperblock.form budget fn' in
      let ra = Regalloc.allocate hf in
      let blocks = List.map (Dataflow.convert ra ~layout) hf.Hyperblock.hblocks in
      ({ Block.fname = hf.Hyperblock.hname; entry = hf.Hyperblock.hentry; blocks },
       fn', hf, ra)
    with
    | r -> r
    | exception ((Block.Invalid _ | Regalloc.Pressure _) as exn) ->
      let label, reason =
        match exn with
        | Block.Invalid (l, r) -> (l, r)
        | Regalloc.Pressure f -> (f, "register pressure")
        | _ -> assert false
      in
      if budget.Hyperblock.max_ins <= 4 then
        failwith
          (Printf.sprintf "compile %s: block %s cannot fit: %s" fn.name label reason)
      else
        let budget =
          { budget with Hyperblock.max_ins = budget.Hyperblock.max_ins * 2 / 3;
            max_mem = max 4 (budget.Hyperblock.max_mem * 2 / 3);
            tail_dup = budget.Hyperblock.tail_dup * 2 / 3 }
        in
        attempt budget (max 6 (cap * 2 / 3))
  in
  let bf, fn', hf, ra =
    attempt preset.budget (max 8 (preset.budget.Hyperblock.max_ins * 3 / 4))
  in
  (* LSID relaxation: renumber provably-disjoint memory ops so loads stop
     waiting on unrelated stores; the pre-relax block is kept so the
     validator can check the permutation independently *)
  let prerelax = ref [] in
  let relaxed = ref 0 in
  let bf =
    if preset.optimize && relax then begin
      let blocks =
        List.map
          (fun (b : Block.t) ->
            let b', flips = Dataflow.relax b in
            if flips > 0 then begin
              prerelax := (b.Block.label, b) :: !prerelax;
              relaxed := !relaxed + flips
            end;
            b')
          bf.Block.blocks
      in
      { bf with Block.blocks }
    end
    else bf
  in
  if verify then verify_stage ~stage:"dataflow-convert" bf;
  let presched =
    List.map
      (fun (b : Block.t) ->
        (b.Block.label,
         (Array.copy b.Block.insts, Array.copy b.Block.reads, Array.copy b.Block.writes)))
      bf.Block.blocks
  in
  List.iter Schedule.place bf.Block.blocks;
  if verify then verify_stage ~stage:"schedule" bf;
  ( bf,
    { w_fn = fn; w_split = fn'; w_hf = hf; w_ra = ra;
      w_prerelax = List.rev !prerelax; w_relaxed = !relaxed;
      w_presched = presched; w_bf = bf } )

let compile_func ?verify preset ~layout fn =
  fst (compile_func_wit ?verify preset ~layout fn)

(* ------------------------------------------------------------------ *)
(* Translation validation                                             *)
(* ------------------------------------------------------------------ *)

module Transval = Trips_analysis.Transval
module S = Trips_analysis.Symval

(* Per-function pass checkpoints after compilation: splitting and
   formation structurally, allocation by property, dataflow conversion
   symbolically per hyperblock, scheduling as array identity. *)
let validate_func ?max_paths ~sym (w : witness) : Transval.report list =
  let fname = w.w_fn.Cfg.name in
  let dataflow =
    List.map
      (fun (hb : Hyperblock.hblock) ->
        try
          (* hyperblock semantics are validated against the block as built;
             the LSID relaxation that may follow is discharged separately
             by check_relax below *)
          let tgt =
            match List.assoc_opt hb.Hyperblock.hlabel w.w_prerelax with
            | Some b -> b
            | None -> (
              match
                List.find_opt
                  (fun (b : Block.t) -> b.Block.label = hb.Hyperblock.hlabel)
                  w.w_bf.Block.blocks
              with
              | Some b -> b
              | None -> raise (Transval.Refute "hyperblock has no EDGE block"))
          in
          let iface v =
            match Regalloc.reg_of w.w_ra v with
            | r -> S.Var (S.Varch r)
            | exception Not_found -> S.Var (S.Vreg v)
          in
          let ws =
            Option.value ~default:[]
              (Hashtbl.find_opt w.w_ra.Regalloc.write_set hb.Hyperblock.hlabel)
          in
          let writes = List.map (fun v -> (v, Regalloc.reg_of w.w_ra v)) ws in
          Transval.check_hblock ?max_paths ~fname ~sym ~iface ~writes
            ~src:(Witness.ritems_of_items hb.Hyperblock.body)
            tgt
        with
        | Transval.Refute msg | Witness.Mismatch msg ->
          Transval.refuted_report ~stage:"dataflow-convert" ~fname
            ~block:hb.Hyperblock.hlabel msg)
      w.w_hf.Hyperblock.hblocks
  in
  let relax_reports =
    List.map
      (fun (label, pre) ->
        match
          List.find_opt (fun (b : Block.t) -> b.Block.label = label) w.w_bf.Block.blocks
        with
        | Some post -> Transval.check_relax ~fname pre post
        | None ->
          Transval.refuted_report ~stage:"lsid-relax" ~fname ~block:label
            "relaxed block disappeared")
      w.w_prerelax
  in
  Witness.check_split ~fname w.w_fn w.w_split
  @ Witness.check_formation ~fname w.w_split w.w_hf
  @ Witness.check_regalloc ~fname w.w_hf w.w_ra
  @ dataflow
  @ relax_reports
  @ Transval.check_schedule ~fname w.w_presched w.w_bf

module Absint = Trips_analysis.Absint

type gstats = {
  gs_consts : int;
  gs_branches : int;
  gs_rles : int;
  gs_dses : int;
  gs_relaxed : int;
}

let zero_gstats = { gs_consts = 0; gs_branches = 0; gs_rles = 0; gs_dses = 0; gs_relaxed = 0 }

let count_gfacts gs gfs =
  List.fold_left
    (fun gs -> function
      | Opt.Gconst _ -> { gs with gs_consts = gs.gs_consts + 1 }
      | Opt.Gbranch _ -> { gs with gs_branches = gs.gs_branches + 1 }
      | Opt.Grle _ -> { gs with gs_rles = gs.gs_rles + 1 }
      | Opt.Gdse _ -> { gs with gs_dses = gs.gs_dses + 1 })
    gs gfs

(* Run the abstract interpretation and apply the fact-driven global passes
   to every function in place, returning the per-function applied facts.
   [?absint_bug] corrupts the compiler-side analysis only (the validator
   always re-derives with a clean one), for the mutation test suite. *)
let run_global_passes ?absint_bug (cfg : Cfg.program) : (string * Opt.gfact list) list =
  let t = Absint.analyze ?bug:absint_bug cfg in
  List.map
    (fun (f : Cfg.func) -> (f.Cfg.name, Opt.run_global (Absint.facts t f.Cfg.name) f))
    cfg.Cfg.funcs

(* The TIR-level pipeline shared by compilation, the absint CLI and the
   [absint] experiment: inline, unroll, lower, local optimization rounds.
   The result is exactly what the abstract interpretation runs on. *)
let front_end preset (p : Ast.program) : Cfg.program =
  let p = if preset.inline_pass then Transform.inline p else p in
  let p =
    if preset.unroll > 1 then Transform.unroll_program ~factor:preset.unroll p else p
  in
  let cfg = Lower.program p in
  if preset.optimize then Opt.run_program cfg;
  cfg

let run_validation_full ?max_paths ?absint_bug ?(global_opt = true) preset
    (p : Ast.program) : Transval.report list * Block.program * gstats =
  let p = if preset.inline_pass then Transform.inline p else p in
  let p =
    if preset.unroll > 1 then Transform.unroll_program ~factor:preset.unroll p else p
  in
  let cfg = Lower.program p in
  let pre_opt =
    if preset.optimize then Some (List.map copy_func cfg.Cfg.funcs) else None
  in
  if preset.optimize then Opt.run_program cfg;
  (* staged checkpoints around the global passes: local-opt output (mid),
     global application output (g1), local cleanup output (final cfg) *)
  let glob = preset.optimize && global_opt in
  let mid = if glob then Some (List.map copy_func cfg.Cfg.funcs) else None in
  let applied = if glob then run_global_passes ?absint_bug cfg else [] in
  let g1 = if glob then Some (List.map copy_func cfg.Cfg.funcs) else None in
  if glob then Opt.run_program cfg;
  let layout = Image.layout cfg.Cfg.globals in
  let sym s =
    match List.assoc_opt s layout with Some a -> Int64.of_int a | None -> 0L
  in
  (* each check's reports, newest first, concatenated in run order *)
  let chunks = ref [] in
  let add reports = chunks := reports :: !chunks in
  let check_opt_stage pres posts =
    List.iter2
      (fun pre (post : Cfg.func) ->
        add (Transval.check_opt ?max_paths ~sym ~fname:post.Cfg.name pre post))
      pres posts
  in
  (match (pre_opt, mid) with
  | Some pres, Some mids -> check_opt_stage pres mids
  | _ -> ());
  (match (mid, g1) with
  | Some mids, Some g1s ->
    let midp = { Cfg.globals = cfg.Cfg.globals; funcs = mids } in
    let g1p = { Cfg.globals = cfg.Cfg.globals; funcs = g1s } in
    add (Transval.check_gapply midp applied g1p);
    check_opt_stage g1s cfg.Cfg.funcs
  | _ -> ());
  let wits = List.map (compile_func_wit ~relax:global_opt preset ~layout) cfg.Cfg.funcs in
  List.iter (fun (_, w) -> add (validate_func ?max_paths ~sym w)) wits;
  let prog = { Block.globals = cfg.Cfg.globals; funcs = List.map fst wits } in
  Block.validate_program prog;
  add (Transval.check_link prog);
  let gs = List.fold_left (fun gs (_, gfs) -> count_gfacts gs gfs) zero_gstats applied in
  let gs =
    List.fold_left
      (fun gs (_, w) -> { gs with gs_relaxed = gs.gs_relaxed + w.w_relaxed })
      gs wits
  in
  (List.concat (List.rev !chunks), prog, gs)

let run_validation ?max_paths ?absint_bug preset p =
  let reports, prog, _ = run_validation_full ?max_paths ?absint_bug preset p in
  (reports, prog)

let validate = run_validation

let compile_stats ?(verify = false) ?(validate = false) ?absint_bug
    ?(global_opt = true) preset (p : Ast.program) : Block.program * gstats =
  if validate then begin
    let reports, prog, gs = run_validation_full ?absint_bug ~global_opt preset p in
    (match
       List.find_opt
         (fun (r : Transval.report) -> r.Transval.r_verdict = Transval.Vrefuted)
         reports
     with
    | Some r ->
      let guilty =
        List.filter
          (fun (r' : Transval.report) ->
            r'.Transval.r_stage = r.Transval.r_stage
            && r'.Transval.r_verdict = Transval.Vrefuted)
          reports
      in
      raise (Verify_failed (r.Transval.r_stage, Transval.report_diags guilty))
    | None -> ());
    if verify then verify_program ~stage:"link" prog;
    (prog, gs)
  end
  else begin
    let cfg = front_end preset p in
    let glob = preset.optimize && global_opt in
    let applied = if glob then run_global_passes ?absint_bug cfg else [] in
    if glob then Opt.run_program cfg;
    let gs = List.fold_left (fun gs (_, gfs) -> count_gfacts gs gfs) zero_gstats applied in
    let layout = Image.layout cfg.Cfg.globals in
    let wits =
      List.map (compile_func_wit ~verify ~relax:global_opt preset ~layout) cfg.Cfg.funcs
    in
    let gs =
      List.fold_left
        (fun gs (_, w) -> { gs with gs_relaxed = gs.gs_relaxed + w.w_relaxed })
        gs wits
    in
    let prog = { Block.globals = cfg.Cfg.globals; funcs = List.map fst wits } in
    Block.validate_program prog;
    if verify then verify_program ~stage:"link" prog;
    (prog, gs)
  end

let compile ?verify ?validate ?absint_bug ?global_opt preset p =
  fst (compile_stats ?verify ?validate ?absint_bug ?global_opt preset p)
