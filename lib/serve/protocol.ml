module Json = Trips_util.Json
module Table = Trips_util.Table
module Service = Trips_harness.Service

let api_prefix = "/api/v1/"

type route =
  | Health
  | Metrics
  | Catalog
  | Run of string  (* verb token from the path; "run" = verb in body *)
  | Unknown

let route_of_path path =
  match path with
  | "/health" | "/healthz" -> Health
  | "/metrics" -> Metrics
  | _ ->
    let n = String.length api_prefix in
    if String.length path > n && String.sub path 0 n = api_prefix then
      match String.sub path n (String.length path - n) with
      | "verbs" -> Catalog
      | verb when String.index_opt verb '/' = None -> Run verb
      | _ -> Unknown
    else Unknown

(* ------------------------------------------------------------------ *)
(* Request body                                                        *)
(* ------------------------------------------------------------------ *)

(* [verb_token] comes from the URL; POST /api/v1/run carries the verb in
   the body instead.  Body fields: verb? bench preset? mode?. *)
let parse_run_request ~verb_token body =
  match Json.parse body with
  | Result.Error e -> Result.Error e
  | Result.Ok v -> (
    let verb =
      if verb_token = "run" then
        match Json.mem_str "verb" v with
        | Some s -> Result.Ok s
        | None -> Result.Error "missing field \"verb\""
      else Result.Ok verb_token
    in
    match verb with
    | Result.Error _ as e -> e
    | Result.Ok verb -> (
      match Json.mem_str "bench" v with
      | None -> Result.Error "missing field \"bench\""
      | Some bench ->
        let preset = Option.value ~default:"" (Json.mem_str "preset" v) in
        let mode = Option.value ~default:"" (Json.mem_str "mode" v) in
        Service.make ~mode ~verb ~bench ~preset))

let run_request_body (r : Service.request) =
  Json.to_string
    (Json.Obj
       [
         ("verb", Json.Str (Service.verb_name r.Service.verb));
         ("bench", Json.Str r.Service.bench);
         ("preset", Json.Str r.Service.preset);
         ("mode", Json.Str r.Service.mode);
       ])

(* ------------------------------------------------------------------ *)
(* Response bodies                                                     *)
(* ------------------------------------------------------------------ *)

let table_json table =
  (* Table.to_json emits deterministic JSON text; round-trip it into the
     response value *)
  match Json.parse (Table.to_json table) with
  | Result.Ok v -> v
  | Result.Error _ -> Json.Str (Table.render table)

let result_body (r : Service.request) ~origin ~elapsed_s table =
  Json.to_string
    (Json.Obj
       [
         ("ok", Json.Bool true);
         ("verb", Json.Str (Service.verb_name r.Service.verb));
         ("bench", Json.Str r.Service.bench);
         ("preset", Json.Str r.Service.preset);
         ("mode", Json.Str r.Service.mode);
         ("origin", Json.Str origin);
         ("elapsed_s", Json.Float elapsed_s);
         ("result", table_json table);
       ])

let error_body ~code msg =
  Json.to_string
    (Json.Obj
       [
         ("ok", Json.Bool false);
         ("error", Json.Str code);
         ("message", Json.Str msg);
       ])

let catalog_body () =
  Json.to_string
    (Json.Obj
       [
         ( "verbs",
           Json.List
             (List.map
                (fun v ->
                  Json.Obj
                    [
                      ("verb", Json.Str (Service.verb_name v));
                      ( "presets",
                        Json.List
                          (List.map
                             (fun p -> Json.Str (Trips_workloads.Preset.name p))
                             (Service.presets_of_verb v)) );
                      ( "modes",
                        Json.List
                          (List.map
                             (fun m -> Json.Str m)
                             (Service.modes_of_verb v)) );
                    ])
                Service.verbs) );
         ( "benches",
           Json.List
             (List.map
                (fun (b : Trips_workloads.Registry.bench) ->
                  Json.Str b.Trips_workloads.Registry.name)
                Trips_workloads.Registry.all) );
       ])
