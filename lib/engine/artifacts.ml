module Table = Trips_util.Table
module Json = Trips_util.Json

type meta = { id : string; title : string; note : string }

type format = Ascii | Json_fmt | Csv

let render fmt table =
  match fmt with
  | Ascii -> Table.render table
  | Json_fmt -> Table.to_json table
  | Csv -> Table.to_csv table

let extension = function Ascii -> "txt" | Json_fmt -> "json" | Csv -> "csv"

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc data)

let table_files dir id table =
  List.map
    (fun fmt ->
      let file = id ^ "." ^ extension fmt in
      write_file (Filename.concat dir file) (render fmt table);
      file)
    [ Ascii; Json_fmt; Csv ]

let manifest_json ~metas ~(report : Engine.report) ~files_of =
  let meta_of id = List.find_opt (fun m -> m.id = id) metas in
  let job (r : Engine.job_report) =
    let status, error =
      match r.outcome with
      | Engine.Finished _ when r.cache_hit -> ("cached", Json.Null)
      | Engine.Finished _ -> ("ok", Json.Null)
      | Engine.Failed { error; _ } -> ("failed", Json.Str error)
    in
    Json.Obj
      [
        ("id", Json.Str r.job_id);
        ( "title",
          match meta_of r.job_id with
          | Some m -> Json.Str m.title
          | None -> Json.Null );
        ( "note",
          match meta_of r.job_id with
          | Some m -> Json.Str m.note
          | None -> Json.Null );
        ("status", Json.Str status);
        ("error", error);
        ("cache_hit", Json.Bool r.cache_hit);
        ("attempts", Json.Int r.attempts);
        ("work_s", Json.Float r.work_s);
        ( "artifacts",
          Json.List (List.map (fun f -> Json.Str f) (files_of r.job_id)) );
      ]
  in
  Json.Obj
    [
      ("generator", Json.Str "trips_engine");
      ("workers", Json.Int report.Engine.workers);
      ("wall_s", Json.Float report.Engine.wall_s);
      ( "cache",
        Json.Obj
          [
            ("hits", Json.Int report.Engine.cache_hits);
            ("misses", Json.Int report.Engine.cache_misses);
          ] );
      ( "worker_busy_s",
        Json.List
          (Array.to_list
             (Array.map (fun s -> Json.Float s) report.Engine.busy_s)) );
      ("worker_utilization", Json.Float (Engine.utilization report));
      ("jobs", Json.List (List.map job report.Engine.job_reports));
    ]

let write_run ~dir ~metas ~(report : Engine.report) =
  Result_cache.mkdir_p dir;
  let written = Hashtbl.create 16 in
  List.iter
    (fun (r : Engine.job_report) ->
      match r.Engine.outcome with
      | Engine.Finished table ->
        Hashtbl.replace written r.Engine.job_id
          (table_files dir r.Engine.job_id table)
      | Engine.Failed _ -> ())
    report.Engine.job_reports;
  let files_of id = Option.value ~default:[] (Hashtbl.find_opt written id) in
  write_file
    (Filename.concat dir "manifest.json")
    (Json.to_string (manifest_json ~metas ~report ~files_of));
  Filename.concat dir "manifest.json"
