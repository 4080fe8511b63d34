(* Abstract-interpretation sweep: per workload and optimizing preset,
   tabulate the fact counts the fixpoint derives (constant definitions,
   provable branch directions, must-not-alias pairs, ...) next to the
   global-optimization hits they buy (folded branches, eliminated loads
   and stores, relaxed LSID pairs), and — on the simple suite — the
   end-to-end simulated-cycle delta of turning the global passes on.

   This is the payoff ledger for the global optimizer: the check.sh gate
   requires nonzero hits with zero validator refutations. *)

module Registry = Trips_workloads.Registry
module Preset = Trips_workloads.Preset
module Driver = Trips_compiler.Driver
module Absint = Trips_analysis.Absint
module Transval = Trips_analysis.Transval
module Core = Trips_sim.Core
module Image = Trips_tir.Image
module Ast = Trips_tir.Ast
module Table = Trips_util.Table
module Json = Trips_util.Json
module Diag = Trips_analysis.Diag

type row = {
  a_bench : string;
  a_preset : Preset.t;
  a_stats : Absint.stats;
  a_diags : Diag.t list;
  a_gs : Driver.gstats;
  a_cycles_on : int option;  (* simulated cycles, global passes on *)
  a_cycles_off : int option;  (* same, passes off; simple suite only *)
  a_refuted : int option;  (* refuted validation reports *)
}

(* the optimizing presets *)
let swept = List.filter (fun p -> p <> Preset.O0) Preset.all

(* one analysis per (preset, bench): its fact counts and its
   deduplicated findings *)
let analyses = Platforms.Memo.create ()

let analysis_of p (b : Registry.bench) : Absint.stats * Diag.t list =
  Platforms.Memo.find_or_compute analyses (p, b.Registry.name)
    (fun () ->
      let cfg = Driver.front_end (Preset.driver p) b.Registry.program in
      let a = Absint.analyze cfg in
      (Absint.stats a, Diag.dedup (Absint.diags a)))

let hits = Platforms.Memo.create ()

let hits_of p (b : Registry.bench) : Driver.gstats =
  Platforms.Memo.find_or_compute hits (p, b.Registry.name)
    (fun () -> snd (Driver.compile_stats (Preset.driver p) b.Registry.program))

let cycles = Platforms.Memo.create ()

let cycles_of ~global_opt p (b : Registry.bench) : int =
  Platforms.Memo.find_or_compute cycles (p, b.Registry.name, global_opt)
    (fun () ->
      let prog = Driver.compile ~global_opt (Preset.driver p) b.Registry.program in
      let image = Image.build b.Registry.program.Ast.globals in
      let r = Core.run prog image ~entry:"main" ~args:[] in
      r.Core.timing.Core.cycles)

let row ?(cycles = false) ?(validate = false) p (b : Registry.bench) : row =
  let a_stats, a_diags = analysis_of p b in
  {
    a_bench = b.Registry.name;
    a_preset = p;
    a_stats;
    a_diags;
    a_gs = hits_of p b;
    a_cycles_on = (if cycles then Some (cycles_of ~global_opt:true p b) else None);
    a_cycles_off = (if cycles then Some (cycles_of ~global_opt:false p b) else None);
    (* full translation validation, shared with the transval sweep:
       every applied global fact and LSID relaxation is re-derived and
       replayed *)
    a_refuted =
      (if validate then
         Some (Transval.summarize (Transval_xv.validate_edge p b)).Transval.n_refuted
       else None);
  }

let total_hits (gs : Driver.gstats) =
  gs.Driver.gs_consts + gs.Driver.gs_branches + gs.Driver.gs_rles
  + gs.Driver.gs_dses + gs.Driver.gs_relaxed

let hits_text (gs : Driver.gstats) =
  Printf.sprintf "%d (%d/%d/%d/%d/%d)" (total_hits gs) gs.Driver.gs_consts
    gs.Driver.gs_branches gs.Driver.gs_rles gs.Driver.gs_dses gs.Driver.gs_relaxed

type report = {
  ar_rows : row list;
  ar_validated : bool;
  ar_total_hits : int;
  ar_total_facts : int;
  ar_refuted : int;
}

let report ?(validate = false) ?(cycles = fun _ _ -> false) presets benches =
  let rows =
    List.concat_map
      (fun b -> List.map (fun p -> row ~cycles:(cycles p b) ~validate p b) presets)
      benches
  in
  let sum f = List.fold_left (fun n r -> n + f r) 0 rows in
  {
    ar_rows = rows;
    ar_validated = validate;
    ar_total_hits = sum (fun r -> total_hits r.a_gs);
    ar_total_facts =
      sum (fun r ->
          let s = r.a_stats in
          s.Absint.s_const_defs + s.Absint.s_dead_branches + s.Absint.s_sep_pairs);
    ar_refuted = sum (fun r -> Option.value r.a_refuted ~default:0);
  }

let diags r = List.concat_map (fun r -> r.a_diags) r.ar_rows

let findings r =
  List.filter_map
    (fun r ->
      match r.a_refuted with
      | Some n when n > 0 ->
        Some
          (Diag.make ~pass:"transval" ~fname:r.a_bench "refuted"
             (Printf.sprintf "%s [%s]: %d refuted validation report(s)"
                r.a_bench (Preset.name r.a_preset) n))
      | _ -> None)
    r.ar_rows
  @ diags r

let to_json ~strict r =
  let row_json r =
    let s = r.a_stats and gs = r.a_gs in
    Json.Obj
      ([
         ("bench", Json.Str r.a_bench);
         ("preset", Json.Str (Preset.name r.a_preset));
         ( "facts",
           Json.Obj
             [
               ("const_defs", Json.Int s.Absint.s_const_defs);
               ("dead_branches", Json.Int s.Absint.s_dead_branches);
               ("sep_pairs", Json.Int s.Absint.s_sep_pairs);
               ("widenings", Json.Int s.Absint.s_widenings);
             ] );
         ( "hits",
           Json.Obj
             [
               ("consts", Json.Int gs.Driver.gs_consts);
               ("branches", Json.Int gs.Driver.gs_branches);
               ("rles", Json.Int gs.Driver.gs_rles);
               ("dses", Json.Int gs.Driver.gs_dses);
               ("relaxed", Json.Int gs.Driver.gs_relaxed);
               ("total", Json.Int (total_hits gs));
             ] );
         ("findings", Diag.list_to_json r.a_diags);
       ]
      @
      match r.a_refuted with
      | Some n -> [ ("refuted", Json.Int n) ]
      | None -> [])
  in
  let ds = diags r in
  Json.Obj
    [
      ("programs", Json.List (List.map row_json r.ar_rows));
      ( "summary",
        Json.Obj
          [
            ("programs", Json.Int (List.length r.ar_rows));
            ("total_hits", Json.Int r.ar_total_hits);
            ("errors", Json.Int (Diag.errors ds));
            ("warnings", Json.Int (Diag.warnings ds));
            ("validated", Json.Bool r.ar_validated);
            ("refuted", Json.Int r.ar_refuted);
            ("strict", Json.Bool strict);
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* The experiment table                                                *)
(* ------------------------------------------------------------------ *)

let warm () =
  List.concat_map
    (fun (b : Registry.bench) ->
      List.map (fun p () -> ignore (row p b)) swept)
    Registry.all
  @ List.map
      (fun (b : Registry.bench) () -> ignore (row ~cycles:true Preset.C b))
      Registry.simple_suite

let crossval () =
  let r =
    report
      ~cycles:(fun p b -> p = Preset.C && List.memq b Registry.simple_suite)
      swept Registry.all
  in
  let t =
    Table.create
      ~title:
        "Global abstract interpretation: derived facts and optimization \
         hits (consts/branches/RLE/DSE/LSID-relax), cycle delta on the \
         simple suite"
      [
        ("bench", Table.Left); ("preset", Table.Left);
        ("const defs", Table.Right); ("dead br", Table.Right);
        ("sep pairs", Table.Right); ("hits", Table.Right);
        ("cycles on", Table.Right); ("cycles off", Table.Right);
        ("delta %", Table.Right);
      ]
  in
  List.iter
    (fun r ->
      let s = r.a_stats and gs = r.a_gs in
      let cyc = function Some c -> string_of_int c | None -> "" in
      let delta =
        match (r.a_cycles_on, r.a_cycles_off) with
        | Some on, Some off when off > 0 ->
          Printf.sprintf "%+.2f" (100. *. float_of_int (on - off) /. float_of_int off)
        | _ -> ""
      in
      Table.add_row t
        [
          r.a_bench; Preset.name r.a_preset;
          string_of_int s.Absint.s_const_defs;
          string_of_int s.Absint.s_dead_branches;
          string_of_int s.Absint.s_sep_pairs;
          hits_text gs;
          cyc r.a_cycles_on; cyc r.a_cycles_off; delta;
        ])
    r.ar_rows;
  Table.add_sep t;
  Table.add_row t
    [
      Printf.sprintf "total: %d facts, %d hits" r.ar_total_facts r.ar_total_hits;
      ""; ""; ""; ""; ""; ""; "";
      (if r.ar_total_hits > 0 then "ok" else "FAIL");
    ];
  t
