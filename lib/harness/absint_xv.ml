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
module Core = Trips_sim.Core
module Image = Trips_tir.Image
module Ast = Trips_tir.Ast
module Table = Trips_util.Table

type row = {
  a_bench : string;
  a_preset : Preset.t;
  a_stats : Absint.stats;
  a_gs : Driver.gstats;
  a_cycles_on : int option;  (* simulated cycles, global passes on *)
  a_cycles_off : int option;  (* same, passes off; simple suite only *)
}

(* the optimizing presets *)
let swept = List.filter (fun p -> p <> Preset.O0) Preset.all

let facts = Platforms.Memo.create ()

let facts_of p (b : Registry.bench) : Absint.stats =
  Platforms.Memo.find_or_compute facts (p, b.Registry.name)
    (fun () ->
      let cfg = Driver.front_end (Preset.driver p) b.Registry.program in
      Absint.stats (Absint.analyze cfg))

let diags = Platforms.Memo.create ()

let diags_of p (b : Registry.bench) =
  Platforms.Memo.find_or_compute diags (p, b.Registry.name)
    (fun () ->
      let cfg = Driver.front_end (Preset.driver p) b.Registry.program in
      Trips_analysis.Diag.dedup (Absint.diags (Absint.analyze cfg)))

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

let row ?(cycles = false) p (b : Registry.bench) : row =
  {
    a_bench = b.Registry.name;
    a_preset = p;
    a_stats = facts_of p b;
    a_gs = hits_of p b;
    a_cycles_on = (if cycles then Some (cycles_of ~global_opt:true p b) else None);
    a_cycles_off = (if cycles then Some (cycles_of ~global_opt:false p b) else None);
  }

let total_hits (gs : Driver.gstats) =
  gs.Driver.gs_consts + gs.Driver.gs_branches + gs.Driver.gs_rles
  + gs.Driver.gs_dses + gs.Driver.gs_relaxed

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
  let tot_hits = ref 0 and tot_facts = ref 0 in
  List.iter
    (fun (b : Registry.bench) ->
      List.iter
        (fun p ->
          let cycles = p = Preset.C && List.memq b Registry.simple_suite in
          let r = row ~cycles p b in
          let s = r.a_stats and gs = r.a_gs in
          tot_hits := !tot_hits + total_hits gs;
          tot_facts :=
            !tot_facts + s.Absint.s_const_defs + s.Absint.s_dead_branches
            + s.Absint.s_sep_pairs;
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
              Printf.sprintf "%d (%d/%d/%d/%d/%d)" (total_hits gs)
                gs.Driver.gs_consts gs.Driver.gs_branches gs.Driver.gs_rles
                gs.Driver.gs_dses gs.Driver.gs_relaxed;
              cyc r.a_cycles_on; cyc r.a_cycles_off; delta;
            ])
        swept)
    Registry.all;
  Table.add_sep t;
  Table.add_row t
    [
      Printf.sprintf "total: %d facts, %d hits" !tot_facts !tot_hits;
      ""; ""; ""; ""; ""; ""; "";
      (if !tot_hits > 0 then "ok" else "FAIL");
    ];
  t
