type bound = Min of float | Max of float

type t = { report : string; path : string; bound : bound }

let ( let* ) = Result.bind

let gate_of_json j =
  let bound =
    match (Json.mem_float "min" j, Json.mem_float "max" j) with
    | Some m, None -> Ok (Min m)
    | None, Some m -> Ok (Max m)
    | _ -> Error "needs exactly one numeric \"min\" or \"max\""
  in
  match (Json.mem_str "report" j, Json.mem_str "path" j, bound) with
  | Some report, Some path, Ok bound -> Ok { report; path; bound }
  | _, _, Error e -> Error ("threshold " ^ e)
  | _ -> Error "threshold needs string \"report\" and \"path\" fields"

let of_json bench =
  match Option.bind (Json.member "thresholds" bench) Json.as_list with
  | None -> Error "no \"thresholds\" list"
  | Some gates ->
    List.fold_right
      (fun j acc ->
        let* g = gate_of_json j in
        let* gs = acc in
        Ok (g :: gs))
      gates (Ok [])

let lookup path v =
  let rec walk v = function
    | [] -> (
      match Json.as_float v with
      | Some x -> Ok x
      | None -> Error (path ^ " is not a number"))
    | k :: rest -> (
      match Json.member k v with
      | Some v -> walk v rest
      | None -> Error (path ^ " is missing"))
  in
  walk v (String.split_on_char '.' path)

let check reports g =
  match List.assoc_opt g.report reports with
  | None -> Error (Printf.sprintf "%s: report not supplied" g.report)
  | Some report -> (
    match lookup g.path report with
    | Error e -> Error (Printf.sprintf "%s: %s" g.report e)
    | Ok v ->
      let ok, bound =
        match g.bound with
        | Min m -> (v >= m, Printf.sprintf "min %g" m)
        | Max m -> (v <= m, Printf.sprintf "max %g" m)
      in
      let line = Printf.sprintf "%s %s = %g (%s)" g.report g.path v bound in
      if ok then Ok line else Error line)
