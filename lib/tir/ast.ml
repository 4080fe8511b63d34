type binop =
  | Add | Sub | Mul | Div | Rem
  | And | Or | Xor | Shl | Lsr | Asr
  | Eq | Ne | Lt | Le | Gt | Ge
  | Ult | Ule
  | Fadd | Fsub | Fmul | Fdiv
  | Feq | Fne | Flt | Fle | Fgt | Fge

type unop =
  | Neg | Not
  | Fneg
  | Itof | Ftoi
  | Sext of Ty.width
  | Zext of Ty.width

type expr =
  | Int of int64
  | Flt of float
  | Var of string
  | Glo of string
  | Bin of binop * expr * expr
  | Un of unop * expr
  | Load of Ty.t * Ty.width * expr
  | Call of string * expr list

type stmt =
  | Let of string * expr
  | Store of Ty.width * expr * expr
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | For of string * expr * expr * int64 * stmt list
  | Expr of expr
  | Return of expr option

type func = {
  fname : string;
  params : (string * Ty.t) list;
  ret : Ty.t option;
  body : stmt list;
}

module Init = struct
  (* Cell [k]: width byte [widths.[k]] (1, 2, 4 or 8) and its value as the
     8 little-endian bytes at [8 * k] of [values]. *)
  type t = { widths : string; values : string }

  let width_of_byte = function
    | '\001' -> Ty.W1
    | '\002' -> Ty.W2
    | '\004' -> Ty.W4
    | _ -> Ty.W8

  let length t = String.length t.widths
  let width t k = width_of_byte t.widths.[k]
  let value t k = String.get_int64_le t.values (8 * k)

  let of_cells cells =
    let n = Array.length cells in
    let widths = Bytes.create n and values = Bytes.create (8 * n) in
    Array.iteri
      (fun k (w, v) ->
        Bytes.set widths k (Char.chr (Ty.bytes_of_width w));
        Bytes.set_int64_le values (8 * k) v)
      cells;
    { widths = Bytes.unsafe_to_string widths; values = Bytes.unsafe_to_string values }

  let init w n f =
    let values = Bytes.create (8 * n) in
    for k = 0 to n - 1 do
      Bytes.set_int64_le values (8 * k) (f k)
    done;
    { widths = String.make n (Char.chr (Ty.bytes_of_width w));
      values = Bytes.unsafe_to_string values }

  let cells t = Array.init (length t) (fun k -> (width t k, value t k))

  let iter f t =
    for k = 0 to length t - 1 do
      f (width t k) (value t k)
    done

  (* A cell's low bytes are the first bytes of its little-endian value, so
     a run of W8 cells is one contiguous copy. *)
  let blit t mem addr =
    let n = length t and k = ref 0 and addr = ref addr in
    while !k < n do
      let first = !k in
      let bytes = Char.code t.widths.[first] in
      incr k;
      if bytes = 8 then
        while !k < n && t.widths.[!k] = '\008' do incr k done;
      let len = if bytes = 8 then 8 * (!k - first) else bytes in
      Bytes.blit_string t.values (8 * first) mem !addr len;
      addr := !addr + len
    done
end

type global = {
  gname : string;
  size : int;
  align : int;
  init : Init.t option;
}

type program = { globals : global list; funcs : func list }

let func fname ?(params = []) ?ret body = { fname; params; ret; body }

let global gname ?(align = 8) ?init size = { gname; size; align; init }

let program ?(globals = []) funcs = { globals; funcs }

let find_func p name = List.find (fun f -> f.fname = name) p.funcs

let binop_name = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Rem -> "%"
  | And -> "&" | Or -> "|" | Xor -> "^" | Shl -> "<<" | Lsr -> ">>u" | Asr -> ">>"
  | Eq -> "==" | Ne -> "!=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="
  | Ult -> "<u" | Ule -> "<=u"
  | Fadd -> "+." | Fsub -> "-." | Fmul -> "*." | Fdiv -> "/."
  | Feq -> "==." | Fne -> "!=." | Flt -> "<." | Fle -> "<=." | Fgt -> ">." | Fge -> ">=."

let commutative = function
  | Add | Mul | And | Or | Xor | Fadd | Fmul | Eq | Ne | Feq | Fne -> true
  | _ -> false

let unop_name = function
  | Neg -> "neg" | Not -> "not" | Fneg -> "fneg"
  | Itof -> "itof" | Ftoi -> "ftoi"
  | Sext w -> Printf.sprintf "sext%d" (Ty.bytes_of_width w)
  | Zext w -> Printf.sprintf "zext%d" (Ty.bytes_of_width w)

let rec pp_expr ppf = function
  | Int i -> Format.fprintf ppf "%Ld" i
  | Flt f -> Format.fprintf ppf "%g" f
  | Var x -> Format.pp_print_string ppf x
  | Glo x -> Format.fprintf ppf "&%s" x
  | Bin (op, a, b) ->
    Format.fprintf ppf "(%a %s %a)" pp_expr a (binop_name op) pp_expr b
  | Un (op, a) -> Format.fprintf ppf "%s(%a)" (unop_name op) pp_expr a
  | Load (t, w, a) ->
    Format.fprintf ppf "load.%a.%d[%a]" Ty.pp t (Ty.bytes_of_width w) pp_expr a
  | Call (f, args) ->
    Format.fprintf ppf "%s(%a)" f
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_expr)
      args

let rec pp_stmt ppf = function
  | Let (x, e) -> Format.fprintf ppf "%s = %a;" x pp_expr e
  | Store (w, a, v) ->
    Format.fprintf ppf "store.%d[%a] = %a;" (Ty.bytes_of_width w) pp_expr a pp_expr v
  | If (c, t, e) ->
    Format.fprintf ppf "@[<v 2>if %a {@,%a@]@,}%a" pp_expr c pp_body t pp_else e
  | While (c, b) ->
    Format.fprintf ppf "@[<v 2>while %a {@,%a@]@,}" pp_expr c pp_body b
  | For (x, lo, hi, step, b) ->
    Format.fprintf ppf "@[<v 2>for %s = %a .. %a step %Ld {@,%a@]@,}" x pp_expr lo
      pp_expr hi step pp_body b
  | Expr e -> Format.fprintf ppf "%a;" pp_expr e
  | Return None -> Format.pp_print_string ppf "return;"
  | Return (Some e) -> Format.fprintf ppf "return %a;" pp_expr e

and pp_body ppf stmts =
  Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_stmt ppf stmts

and pp_else ppf = function
  | [] -> ()
  | e -> Format.fprintf ppf "@[<v 2> else {@,%a@]@,}" pp_body e

let pp_func ppf f =
  let pp_param ppf (x, t) = Format.fprintf ppf "%s:%a" x Ty.pp t in
  Format.fprintf ppf "@[<v 2>func %s(%a)%s {@,%a@]@,}" f.fname
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_param)
    f.params
    (match f.ret with None -> "" | Some t -> " : " ^ Ty.to_string t)
    pp_body f.body

let pp_global ppf g =
  let pp_init ppf = function
    | None -> ()
    | Some cells ->
      Format.fprintf ppf " = {";
      let first = ref true in
      Init.iter
        (fun w v ->
          if not !first then Format.fprintf ppf ", ";
          first := false;
          Format.fprintf ppf "w%d:%Ld" (Ty.bytes_of_width w) v)
        cells;
      Format.fprintf ppf "}"
  in
  Format.fprintf ppf "global %s[%d] align %d%a" g.gname g.size g.align pp_init
    g.init

let pp ppf p =
  let pp_sep ppf () = Format.fprintf ppf "@,@," in
  Format.fprintf ppf "@[<v>";
  List.iter (fun g -> Format.fprintf ppf "%a@,@," pp_global g) p.globals;
  Format.pp_print_list ~pp_sep pp_func ppf p.funcs;
  Format.fprintf ppf "@]"

let pp_program = pp

let to_string p = Format.asprintf "%a@." pp p

module Infix = struct
  let i n = Int (Int64.of_int n)
  let i64 n = Int n
  let f x = Flt x
  let v x = Var x
  let g x = Glo x

  let ( +: ) a b = Bin (Add, a, b)
  let ( -: ) a b = Bin (Sub, a, b)
  let ( *: ) a b = Bin (Mul, a, b)
  let ( /: ) a b = Bin (Div, a, b)
  let ( %: ) a b = Bin (Rem, a, b)
  let ( &: ) a b = Bin (And, a, b)
  let ( |: ) a b = Bin (Or, a, b)
  let ( ^: ) a b = Bin (Xor, a, b)
  let ( <<: ) a b = Bin (Shl, a, b)
  let ( >>: ) a b = Bin (Lsr, a, b)
  let ( >>>: ) a b = Bin (Asr, a, b)
  let ( =: ) a b = Bin (Eq, a, b)
  let ( <>: ) a b = Bin (Ne, a, b)
  let ( <: ) a b = Bin (Lt, a, b)
  let ( <=: ) a b = Bin (Le, a, b)
  let ( >: ) a b = Bin (Gt, a, b)
  let ( >=: ) a b = Bin (Ge, a, b)

  let ( +.: ) a b = Bin (Fadd, a, b)
  let ( -.: ) a b = Bin (Fsub, a, b)
  let ( *.: ) a b = Bin (Fmul, a, b)
  let ( /.: ) a b = Bin (Fdiv, a, b)
  let ( <.: ) a b = Bin (Flt, a, b)
  let ( <=.: ) a b = Bin (Fle, a, b)
  let ( >.: ) a b = Bin (Fgt, a, b)
  let ( =.: ) a b = Bin (Feq, a, b)

  let ld8 a = Load (Ty.I64, Ty.W8, a)
  let ld2 a = Load (Ty.I64, Ty.W2, a)
  let ld1 a = Load (Ty.I64, Ty.W1, a)
  let ldf a = Load (Ty.F64, Ty.W8, a)
  let st8 a x = Store (Ty.W8, a, x)
  let st2 a x = Store (Ty.W2, a, x)
  let st1 a x = Store (Ty.W1, a, x)
  let stf a x = Store (Ty.W8, a, x)

  let set x e = Let (x, e)
  let if_ c t e = If (c, t, e)
  let while_ c b = While (c, b)
  let for_ x lo hi b = For (x, lo, hi, 1L, b)
  let for_step x lo hi s b = For (x, lo, hi, s, b)
  let ret e = Return (Some e)
  let call fname args = Call (fname, args)
end
