module Json = Trips_util.Json
module Table = Trips_util.Table
module Engine = Trips_engine.Engine

type outcome =
  | Pass
  | Invalid of string
  | Divergent of {
      d_failures : Oracle.failure list;
      d_first : Oracle.failure;
      d_shrink : Shrink.result;
    }

type row = { b_seed : int; b_size : int; b_stmts : int; b_outcome : outcome }

type t = {
  bt_seed : int;
  bt_count : int;
  bt_presets : string list;
  bt_inject : string option;
  bt_rows : row list;  (* in seed order *)
  bt_pass : int;
  bt_invalid : int;
  bt_divergent : int;
}

let run_one ?(gen_cfg = Gen.default_cfg) ?(shrink_evals = 2000)
    (oracle : Oracle.t) ~seed : row =
  let p = Gen.gen_program ~cfg:gen_cfg ~seed () in
  let b_size = Typecheck.size_program p in
  let b_stmts = Typecheck.stmt_count p in
  let b_outcome =
    match Oracle.run oracle p with
    | Oracle.Pass -> Pass
    | Oracle.Invalid m -> Invalid m
    | Oracle.Fail [] -> Invalid "empty failure list"
    | Oracle.Fail (f :: _ as fs) ->
      let sh = Shrink.shrink ~max_evals:shrink_evals oracle f p in
      Divergent { d_failures = fs; d_first = f; d_shrink = sh }
  in
  { b_seed = seed; b_size; b_stmts; b_outcome }

let assemble ~seed ~count oracle rows =
  let count_if pred = List.length (List.filter pred rows) in
  {
    bt_seed = seed;
    bt_count = count;
    bt_presets =
      List.map
        (fun (p : Trips_compiler.Driver.preset) -> p.Trips_compiler.Driver.pname)
        oracle.Oracle.presets;
    bt_inject = Option.map Oracle.inject_to_string oracle.Oracle.inject;
    bt_rows = rows;
    bt_pass = count_if (fun r -> r.b_outcome = Pass);
    bt_invalid =
      count_if (fun r -> match r.b_outcome with Invalid _ -> true | _ -> false);
    bt_divergent =
      count_if (fun r ->
          match r.b_outcome with Divergent _ -> true | _ -> false);
  }

(* Fan the seeds across the engine's worker domains as warm sub-jobs of a
   single uncached job (every program is fresh by design: no cache key, no
   memoized results — the full stack recomputes for each seed).  Distinct
   array slots make the warm tasks race-free; the engine awaits every warm
   through [Pool.await], whose lock orders each write before [assemble]. *)
let run ?workers ?gen_cfg ?shrink_evals (oracle : Oracle.t) ~seed ~count () : t
    =
  let slots = Array.make (max count 1) None in
  let warm =
    List.init count (fun i ->
        fun () ->
         slots.(i) <- Some (run_one ?gen_cfg ?shrink_evals oracle ~seed:(seed + i)))
  in
  let job =
    Engine.job ~warm ~id:"fuzz" (fun () -> Table.create [])
  in
  ignore (Engine.run ?workers [ job ]);
  (* Backfill sequentially if a warm task was lost to a crash. *)
  Array.iteri
    (fun i s ->
      if s = None then
        slots.(i) <- Some (run_one ?gen_cfg ?shrink_evals oracle ~seed:(seed + i)))
    slots;
  let rows =
    Array.to_list (Array.sub slots 0 count) |> List.filter_map (fun x -> x)
  in
  assemble ~seed ~count oracle rows

let run_seq ?gen_cfg ?shrink_evals (oracle : Oracle.t) ~seed ~count () : t =
  let rows =
    List.init count (fun i -> i)
    |> List.map (fun i -> run_one ?gen_cfg ?shrink_evals oracle ~seed:(seed + i))
  in
  assemble ~seed ~count oracle rows

let divergences t =
  List.filter_map
    (fun r ->
      match r.b_outcome with
      | Divergent d -> Some (r, d.d_first, d.d_shrink)
      | _ -> None)
    t.bt_rows

let to_json (t : t) : Json.t =
  let row_json r =
    let base =
      [ ("seed", Json.Int r.b_seed); ("size", Json.Int r.b_size);
        ("stmts", Json.Int r.b_stmts) ]
    in
    match r.b_outcome with
    | Pass -> Json.Obj (base @ [ ("outcome", Json.Str "pass") ])
    | Invalid m ->
      Json.Obj (base @ [ ("outcome", Json.Str "invalid"); ("reason", Json.Str m) ])
    | Divergent d ->
      Json.Obj
        (base
        @ [
            ("outcome", Json.Str "divergent");
            ("check", Json.Str d.d_first.f_check);
            ("config", Json.Str d.d_first.f_config);
            ("detail", Json.Str d.d_first.f_detail);
            ("failures", Json.Int (List.length d.d_failures));
            ("shrunk_size", Json.Int d.d_shrink.Shrink.sh_size);
            ( "shrunk_stmts",
              Json.Int (Typecheck.stmt_count d.d_shrink.Shrink.sh_program) );
            ("shrink_steps", Json.Int d.d_shrink.Shrink.sh_steps);
            ("shrink_evals", Json.Int d.d_shrink.Shrink.sh_evals);
          ])
  in
  Json.Obj
    [
      ("seed", Json.Int t.bt_seed);
      ("count", Json.Int t.bt_count);
      ("presets", Json.List (List.map (fun p -> Json.Str p) t.bt_presets));
      ( "inject",
        match t.bt_inject with None -> Json.Null | Some k -> Json.Str k );
      ( "summary",
        Json.Obj
          [
            ("pass", Json.Int t.bt_pass);
            ("invalid", Json.Int t.bt_invalid);
            ("divergent", Json.Int t.bt_divergent);
          ] );
      ("programs", Json.List (List.map row_json t.bt_rows));
    ]

let table (t : t) : Table.t
    =
  let tb =
    Table.create
      ~title:
        (Printf.sprintf "Differential fuzzing: seeds %d..%d x presets %s%s"
           t.bt_seed
           (t.bt_seed + t.bt_count - 1)
           (String.concat "/" t.bt_presets)
           (match t.bt_inject with
           | None -> ""
           | Some k -> Printf.sprintf " (injected %s)" k))
      [
        ("seed", Table.Right); ("size", Table.Right); ("stmts", Table.Right);
        ("outcome", Table.Left); ("detail", Table.Left);
      ]
  in
  let total_size = List.fold_left (fun n r -> n + r.b_size) 0 t.bt_rows in
  List.iter
    (fun r ->
      match r.b_outcome with
      | Pass -> ()
      | Invalid m ->
        Table.add_row tb
          [ string_of_int r.b_seed; string_of_int r.b_size;
            string_of_int r.b_stmts; "invalid"; m ]
      | Divergent d ->
        Table.add_row tb
          [
            string_of_int r.b_seed; string_of_int r.b_size;
            string_of_int r.b_stmts;
            Printf.sprintf "DIVERGENT %s/%s" d.d_first.f_check d.d_first.f_config;
            Printf.sprintf "shrunk %d -> %d nodes; %s"
              d.d_shrink.Shrink.sh_orig_size d.d_shrink.Shrink.sh_size
              d.d_first.f_detail;
          ])
    t.bt_rows;
  Table.add_row tb
    [
      "all"; string_of_int total_size; "";
      Printf.sprintf "%d pass / %d invalid / %d divergent" t.bt_pass
        t.bt_invalid t.bt_divergent;
      "";
    ];
  tb
