module Ast = Trips_tir.Ast
module Ty = Trips_tir.Ty
module Json = Trips_util.Json

exception Bad of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

(* Int64s travel as decimal strings (Json.Int is a 63-bit int), floats as
   the decimal spelling of their IEEE bit pattern, so round-trips are
   exact for every value including NaNs and infinities. *)
let j64 (n : int64) = Json.Str (Int64.to_string n)

let of_j64 j =
  match Json.as_str j with
  | Some s -> (try Int64.of_string s with _ -> fail "bad int64 %S" s)
  | None -> fail "expected an int64 string"

let jflt (x : float) = Json.Str (Int64.to_string (Int64.bits_of_float x))

let of_jflt j = Int64.float_of_bits (of_j64 j)

let jty = function Ty.I64 -> Json.Str "i64" | Ty.F64 -> Json.Str "f64"

let of_jty j =
  match Json.as_str j with
  | Some "i64" -> Ty.I64
  | Some "f64" -> Ty.F64
  | _ -> fail "expected a type"

let jwidth (w : Ty.width) = Json.Int (Ty.bytes_of_width w)

let of_jwidth j =
  match Json.as_int j with
  | Some 1 -> Ty.W1
  | Some 2 -> Ty.W2
  | Some 4 -> Ty.W4
  | Some 8 -> Ty.W8
  | _ -> fail "expected a width"

(* Operator names reuse the stable Ast.binop_name / unop_name spellings. *)
let all_binops =
  [ Ast.Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Lsr; Asr; Eq; Ne; Lt;
    Le; Gt; Ge; Ult; Ule; Fadd; Fsub; Fmul; Fdiv; Feq; Fne; Flt; Fle; Fgt;
    Fge ]

let all_unops =
  [ Ast.Neg; Not; Fneg; Itof; Ftoi; Sext Ty.W1; Sext Ty.W2; Sext Ty.W4;
    Sext Ty.W8; Zext Ty.W1; Zext Ty.W2; Zext Ty.W4; Zext Ty.W8 ]

let binop_of_name s =
  match List.find_opt (fun op -> Ast.binop_name op = s) all_binops with
  | Some op -> op
  | None -> fail "unknown binop %S" s

let unop_of_name s =
  match List.find_opt (fun op -> Ast.unop_name op = s) all_unops with
  | Some op -> op
  | None -> fail "unknown unop %S" s

let field k j = match Json.member k j with Some v -> v | None -> fail "missing field %S" k

let str_field k j =
  match Json.mem_str k j with Some s -> s | None -> fail "missing string field %S" k

let rec jexpr (e : Ast.expr) : Json.t =
  match e with
  | Int n -> Json.Obj [ ("k", Json.Str "int"); ("v", j64 n) ]
  | Flt x -> Json.Obj [ ("k", Json.Str "flt"); ("bits", jflt x) ]
  | Var x -> Json.Obj [ ("k", Json.Str "var"); ("x", Json.Str x) ]
  | Glo g -> Json.Obj [ ("k", Json.Str "glo"); ("g", Json.Str g) ]
  | Bin (op, a, b) ->
    Json.Obj
      [ ("k", Json.Str "bin"); ("op", Json.Str (Ast.binop_name op));
        ("a", jexpr a); ("b", jexpr b) ]
  | Un (op, a) ->
    Json.Obj
      [ ("k", Json.Str "un"); ("op", Json.Str (Ast.unop_name op));
        ("a", jexpr a) ]
  | Load (t, w, a) ->
    Json.Obj
      [ ("k", Json.Str "load"); ("ty", jty t); ("w", jwidth w); ("a", jexpr a) ]
  | Call (f, args) ->
    Json.Obj
      [ ("k", Json.Str "call"); ("f", Json.Str f);
        ("args", Json.List (List.map jexpr args)) ]

let rec of_jexpr (j : Json.t) : Ast.expr =
  match str_field "k" j with
  | "int" -> Int (of_j64 (field "v" j))
  | "flt" -> Flt (of_jflt (field "bits" j))
  | "var" -> Var (str_field "x" j)
  | "glo" -> Glo (str_field "g" j)
  | "bin" ->
    Bin
      (binop_of_name (str_field "op" j), of_jexpr (field "a" j),
       of_jexpr (field "b" j))
  | "un" -> Un (unop_of_name (str_field "op" j), of_jexpr (field "a" j))
  | "load" ->
    Load (of_jty (field "ty" j), of_jwidth (field "w" j), of_jexpr (field "a" j))
  | "call" -> (
    match Json.member "args" j |> Option.map Json.as_list with
    | Some (Some args) -> Call (str_field "f" j, List.map of_jexpr args)
    | _ -> fail "call without args")
  | k -> fail "unknown expr kind %S" k

let rec jstmt (s : Ast.stmt) : Json.t =
  match s with
  | Let (x, e) ->
    Json.Obj [ ("k", Json.Str "let"); ("x", Json.Str x); ("e", jexpr e) ]
  | Store (w, a, v) ->
    Json.Obj
      [ ("k", Json.Str "store"); ("w", jwidth w); ("a", jexpr a);
        ("v", jexpr v) ]
  | If (c, t, e) ->
    Json.Obj
      [ ("k", Json.Str "if"); ("c", jexpr c); ("t", jbody t); ("e", jbody e) ]
  | While (c, b) ->
    Json.Obj [ ("k", Json.Str "while"); ("c", jexpr c); ("b", jbody b) ]
  | For (x, lo, hi, step, b) ->
    Json.Obj
      [ ("k", Json.Str "for"); ("x", Json.Str x); ("lo", jexpr lo);
        ("hi", jexpr hi); ("step", j64 step); ("b", jbody b) ]
  | Expr e -> Json.Obj [ ("k", Json.Str "expr"); ("e", jexpr e) ]
  | Return None -> Json.Obj [ ("k", Json.Str "ret") ]
  | Return (Some e) -> Json.Obj [ ("k", Json.Str "ret"); ("e", jexpr e) ]

and jbody b = Json.List (List.map jstmt b)

let rec of_jstmt (j : Json.t) : Ast.stmt =
  match str_field "k" j with
  | "let" -> Let (str_field "x" j, of_jexpr (field "e" j))
  | "store" ->
    Store
      (of_jwidth (field "w" j), of_jexpr (field "a" j), of_jexpr (field "v" j))
  | "if" ->
    If (of_jexpr (field "c" j), of_jbody (field "t" j), of_jbody (field "e" j))
  | "while" -> While (of_jexpr (field "c" j), of_jbody (field "b" j))
  | "for" ->
    For
      (str_field "x" j, of_jexpr (field "lo" j), of_jexpr (field "hi" j),
       of_j64 (field "step" j), of_jbody (field "b" j))
  | "expr" -> Expr (of_jexpr (field "e" j))
  | "ret" -> (
    match Json.member "e" j with
    | None -> Return None
    | Some e -> Return (Some (of_jexpr e)))
  | k -> fail "unknown stmt kind %S" k

and of_jbody j =
  match Json.as_list j with
  | Some l -> List.map of_jstmt l
  | None -> fail "expected a statement list"

let jfunc (f : Ast.func) : Json.t =
  Json.Obj
    [
      ("name", Json.Str f.fname);
      ( "params",
        Json.List
          (List.map
             (fun (x, t) -> Json.Obj [ ("x", Json.Str x); ("ty", jty t) ])
             f.params) );
      ("ret", match f.ret with None -> Json.Null | Some t -> jty t);
      ("body", jbody f.body);
    ]

let of_jfunc (j : Json.t) : Ast.func =
  let params =
    match Json.member "params" j |> Option.map Json.as_list with
    | Some (Some l) ->
      List.map (fun p -> (str_field "x" p, of_jty (field "ty" p))) l
    | _ -> fail "func without params"
  in
  {
    fname = str_field "name" j;
    params;
    ret = (match field "ret" j with Json.Null -> None | t -> Some (of_jty t));
    body = of_jbody (field "body" j);
  }

let jglobal (g : Ast.global) : Json.t =
  Json.Obj
    [
      ("name", Json.Str g.gname);
      ("size", Json.Int g.size);
      ("align", Json.Int g.align);
      ( "init",
        match g.init with
        | None -> Json.Null
        | Some cells ->
          Json.List
            (Array.to_list (Ast.Init.cells cells)
            |> List.map (fun (w, v) -> Json.List [ jwidth w; j64 v ])) );
    ]

let of_jglobal (j : Json.t) : Ast.global =
  let init =
    match field "init" j with
    | Json.Null -> None
    | Json.List cells ->
      Some
        (Ast.Init.of_cells
           (Array.of_list
              (List.map
                 (fun c ->
                   match Json.as_list c with
                   | Some [ w; v ] -> (of_jwidth w, of_j64 v)
                   | _ -> fail "bad init cell")
                 cells)))
    | _ -> fail "bad init"
  in
  {
    gname = str_field "name" j;
    size = (match Json.mem_int "size" j with Some n -> n | None -> fail "no size");
    align = (match Json.mem_int "align" j with Some n -> n | None -> fail "no align");
    init;
  }

let jprogram (p : Ast.program) : Json.t =
  Json.Obj
    [
      ("globals", Json.List (List.map jglobal p.globals));
      ("funcs", Json.List (List.map jfunc p.funcs));
    ]

let of_jprogram (j : Json.t) : Ast.program =
  match
    ( Json.member "globals" j |> Option.map Json.as_list,
      Json.member "funcs" j |> Option.map Json.as_list )
  with
  | Some (Some gs), Some (Some fs) ->
    { globals = List.map of_jglobal gs; funcs = List.map of_jfunc fs }
  | _ -> fail "program without globals/funcs"

(* {2 Corpus entries} *)

type entry = {
  e_name : string;
  e_seed : int;
  e_check : string;
  e_config : string;
  e_detail : string;
  e_inject : string option;  (* injected bug kind the entry reproduces *)
  e_program : Ast.program;
}

let entry_to_json (e : entry) : Json.t =
  Json.Obj
    [
      ("version", Json.Int 1);
      ("name", Json.Str e.e_name);
      ("seed", Json.Int e.e_seed);
      ("check", Json.Str e.e_check);
      ("config", Json.Str e.e_config);
      ("detail", Json.Str e.e_detail);
      ( "inject",
        match e.e_inject with None -> Json.Null | Some k -> Json.Str k );
      ("program", jprogram e.e_program);
      (* Human-readable rendering; the decoder ignores it. *)
      ("text", Json.Str (Ast.to_string e.e_program));
    ]

let entry_of_json (j : Json.t) : entry =
  {
    e_name = str_field "name" j;
    e_seed = (match Json.mem_int "seed" j with Some n -> n | None -> 0);
    e_check = str_field "check" j;
    e_config = (match Json.mem_str "config" j with Some s -> s | None -> "");
    e_detail = (match Json.mem_str "detail" j with Some s -> s | None -> "");
    e_inject =
      (match Json.member "inject" j with
      | Some (Json.Str s) -> Some s
      | _ -> None);
    e_program = of_jprogram (field "program" j);
  }

let save dir (e : entry) =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (e.e_name ^ ".json") in
  let oc = open_out path in
  output_string oc (Json.to_string (entry_to_json e));
  close_out oc;
  path

let load path : (entry, string) result =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  match Json.parse s with
  | Error m -> Error (Printf.sprintf "%s: %s" path m)
  | Ok j -> (
    try Ok (entry_of_json j)
    with Bad m -> Error (Printf.sprintf "%s: %s" path m))

let load_dir dir : (string * (entry, string) result) list =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort compare
    |> List.map (fun f ->
           let path = Filename.concat dir f in
           (path, load path))
