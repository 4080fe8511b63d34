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

let sweep ?(presets = Preset.all) ?(risc = true) benches : cell list =
  List.concat_map
    (fun b ->
      List.map (fun tag -> cell_edge tag b) presets
      @ (if risc then [ cell_risc b ] else []))
    benches

let cell_text (s : T.summary) =
  if s.T.n_refuted > 0 then Printf.sprintf "REFUTED:%d" s.T.n_refuted
  else if s.T.n_concrete > 0 then
    Printf.sprintf "%d+%dc" s.T.n_proved s.T.n_concrete
  else string_of_int s.T.n_proved

let crossval () : Table.t =
  let benches = Registry.all in
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
  let total = ref { T.n_proved = 0; n_concrete = 0; n_refuted = 0 } in
  let add (s : T.summary) =
    total :=
      {
        T.n_proved = !total.T.n_proved + s.T.n_proved;
        n_concrete = !total.T.n_concrete + s.T.n_concrete;
        n_refuted = !total.T.n_refuted + s.T.n_refuted;
      }
  in
  List.iter
    (fun (b : Registry.bench) ->
      let cells =
        List.map
          (fun tag ->
            let s = (cell_edge tag b).c_summary in
            add s;
            cell_text s)
          Preset.all
        @ [
            (let s = (cell_risc b).c_summary in
             add s;
             cell_text s);
          ]
      in
      Table.add_row t (b.Registry.name :: cells))
    benches;
  Table.add_sep t;
  let s = !total in
  Table.add_row t
    (("total (" ^ cell_text s ^ ")")
    :: List.map (fun _ -> "") Preset.all
    @ [ (if s.T.n_refuted = 0 then "ok" else "FAIL") ]);
  t
