(* Translation-validation sweep: run the symbolic validator over every
   registered workload at every code-quality preset (EDGE pipeline) and
   over the RISC backend, and tabulate proved/concrete/refuted counts.

   A clean sweep (zero refutations, and ideally zero concretization
   fallbacks) is the standing evidence that every compiler pass preserves
   the TIR semantics on the entire workload population — the
   complement of the golden-output differential tests, which witness
   only the executed paths. *)

module Registry = Trips_workloads.Registry
module Preset = Trips_workloads.Preset
module Driver = Trips_compiler.Driver
module T = Trips_analysis.Transval
module Cg = Trips_risc.Codegen
module Risa = Trips_risc.Isa
module Table = Trips_util.Table
module Json = Trips_util.Json
module Diag = Trips_analysis.Diag

let edge_reports = Platforms.Memo.create ()

let validate_edge tag (b : Registry.bench) : T.report list =
  Platforms.Memo.find_or_compute edge_reports (tag, b.Registry.name)
    (fun () -> fst (Driver.validate (Preset.driver tag) b.Registry.program))

let risc_reports = Platforms.Memo.create ()

let validate_risc (b : Registry.bench) : T.report list =
  Platforms.Memo.find_or_compute risc_reports b.Registry.name
    (fun () ->
      let prog, wits, layout = Cg.compile_witnessed b.Registry.program in
      let sym s =
        match List.assoc_opt s layout with
        | Some a -> Int64.of_int a
        | None -> 0L
      in
      List.concat_map
        (fun (fname, (w : Cg.fwitness)) ->
          let rf =
            List.find
              (fun (f : Risa.func) -> f.Risa.fname = fname)
              prog.Risa.funcs
          in
          let cls v = w.Cg.wf_cls.(v) = Cg.Cf_ in
          let loc v =
            match w.Cg.wf_assign.(v) with
            | Cg.Reg r -> T.Lreg r
            | Cg.Spill s -> T.Lspill s
          in
          T.check_risc_func ~sym ~fname ~cls ~loc ~frame:w.Cg.wf_frame
            ~has_frame:w.Cg.wf_has_frame w.Cg.wf_cfg rf)
        wits)

(* ------------------------------------------------------------------ *)
(* Sweep table                                                         *)
(* ------------------------------------------------------------------ *)

type cell = {
  c_bench : string;
  c_config : string;  (* preset tag or "RISC" *)
  c_summary : T.summary;
  c_reports : T.report list;
}

let cell_edge tag b =
  let rs = validate_edge tag b in
  {
    c_bench = b.Registry.name;
    c_config = Preset.name tag;
    c_summary = T.summarize rs;
    c_reports = rs;
  }

let cell_risc b =
  let rs = validate_risc b in
  {
    c_bench = b.Registry.name;
    c_config = "RISC";
    c_summary = T.summarize rs;
    c_reports = rs;
  }

type report = {
  tv_cells : cell list;
  tv_total : T.summary;
}

let report ?(presets = Preset.all) ?(risc = true) benches =
  let cells =
    List.concat_map
      (fun b ->
        List.map (fun tag -> cell_edge tag b) presets
        @ if risc then [ cell_risc b ] else [])
      benches
  in
  {
    tv_cells = cells;
    tv_total = T.summarize (List.concat_map (fun c -> c.c_reports) cells);
  }

let cell_findings c = T.report_diags c.c_reports

let findings r = List.concat_map cell_findings r.tv_cells

let to_json ~strict r =
  let cell_json c =
    let s = c.c_summary in
    Json.Obj
      [
        ("bench", Json.Str c.c_bench);
        ("config", Json.Str c.c_config);
        ("proved", Json.Int s.T.n_proved);
        ("concrete", Json.Int s.T.n_concrete);
        ("refuted", Json.Int s.T.n_refuted);
        ("findings", Diag.list_to_json (cell_findings c));
      ]
  in
  let s = r.tv_total in
  Json.Obj
    [
      ("programs", Json.List (List.map cell_json r.tv_cells));
      ( "summary",
        Json.Obj
          [
            ("programs", Json.Int (List.length r.tv_cells));
            ("proved", Json.Int s.T.n_proved);
            ("concrete", Json.Int s.T.n_concrete);
            ("refuted", Json.Int s.T.n_refuted);
            ("warnings", Json.Int (Diag.warnings (findings r)));
            ("strict", Json.Bool strict);
          ] );
    ]

let cell_text (s : T.summary) =
  if s.T.n_refuted > 0 then Printf.sprintf "REFUTED:%d" s.T.n_refuted
  else if s.T.n_concrete > 0 then
    Printf.sprintf "%d+%dc" s.T.n_proved s.T.n_concrete
  else string_of_int s.T.n_proved

let crossval () : Table.t =
  let r = report Registry.all in
  let cols =
    ("benchmark", Table.Left)
    :: List.map (fun tag -> (Preset.name tag, Table.Right)) Preset.all
    @ [ ("RISC", Table.Right) ]
  in
  let t =
    Table.create
      ~title:
        "Translation validation: blocks proved equivalent per pass chain \
         (count, +Nc = concretized, REFUTED:N = miscompiles)"
      cols
  in
  List.iter
    (fun (b : Registry.bench) ->
      Table.add_row t
        (b.Registry.name
        :: List.filter_map
             (fun c ->
               if c.c_bench = b.Registry.name then Some (cell_text c.c_summary)
               else None)
             r.tv_cells))
    Registry.all;
  Table.add_sep t;
  let s = r.tv_total in
  Table.add_row t
    (("total (" ^ cell_text s ^ ")")
    :: List.map (fun _ -> "") Preset.all
    @ [ (if s.T.n_refuted = 0 then "ok" else "FAIL") ]);
  t
