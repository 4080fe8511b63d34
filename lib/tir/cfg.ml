type vreg = int

type operand =
  | Reg of vreg
  | Ci of int64
  | Cf of float
  | Sym of string

type ins =
  | Bin of Ast.binop * vreg * operand * operand
  | Un of Ast.unop * vreg * operand
  | Mov of vreg * operand
  | Load of Ty.t * Ty.width * vreg * operand * int
  | Store of Ty.width * operand * int * operand
  | Call of vreg option * string * operand list

type term =
  | Jmp of string
  | Br of operand * string * string
  | Ret of operand option

type block = {
  label : string;
  mutable ins : ins list;
  mutable term : term;
}

type func = {
  name : string;
  mutable params : (vreg * Ty.t) list;
  ret : Ty.t option;
  mutable blocks : block list;
  mutable next_vreg : int;
}

type program = { globals : Ast.global list; funcs : func list }

let fresh f =
  let r = f.next_vreg in
  f.next_vreg <- r + 1;
  r

let entry f =
  match f.blocks with
  | [] -> invalid_arg "Cfg.entry: empty function"
  | b :: _ -> b

let find_block f label = List.find (fun b -> b.label = label) f.blocks

let successors = function
  | Jmp l -> [ l ]
  | Br (_, l1, l2) -> [ l1; l2 ]
  | Ret _ -> []

let defs = function
  | Bin (_, d, _, _) | Un (_, d, _) | Mov (d, _) | Load (_, _, d, _, _) -> [ d ]
  | Store _ -> []
  | Call (Some d, _, _) -> [ d ]
  | Call (None, _, _) -> []

let uses = function
  | Bin (_, _, a, b) -> [ a; b ]
  | Un (_, _, a) | Mov (_, a) | Load (_, _, _, a, _) -> [ a ]
  | Store (_, a, _, v) -> [ a; v ]
  | Call (_, _, args) -> args

let term_uses = function
  | Jmp _ -> []
  | Br (c, _, _) -> [ c ]
  | Ret (Some v) -> [ v ]
  | Ret None -> []

let map_ins_operands f = function
  | Bin (op, d, a, b) -> Bin (op, d, f a, f b)
  | Un (op, d, a) -> Un (op, d, f a)
  | Mov (d, a) -> Mov (d, f a)
  | Load (t, w, d, a, off) -> Load (t, w, d, f a, off)
  | Store (w, a, off, v) -> Store (w, f a, off, f v)
  | Call (d, name, args) -> Call (d, name, List.map f args)

let map_term_operands f = function
  | Jmp l -> Jmp l
  | Br (c, l1, l2) -> Br (f c, l1, l2)
  | Ret (Some v) -> Ret (Some (f v))
  | Ret None -> Ret None

let find_func p name = List.find (fun f -> f.name = name) p.funcs

(* One spelling of operands, instructions and terminators, written into a
   buffer: the printers below and [Opt.run]'s fixpoint test share it. *)
let add_operand buf = function
  | Reg r ->
    Buffer.add_char buf 'v';
    Buffer.add_string buf (string_of_int r)
  | Ci i -> Buffer.add_string buf (Int64.to_string i)
  | Cf x -> Buffer.add_string buf (Printf.sprintf "%g" x)
  | Sym s ->
    Buffer.add_char buf '&';
    Buffer.add_string buf s

let add_ins buf ins =
  let str = Buffer.add_string buf and op = add_operand buf in
  let def d = op (Reg d); str " = " in
  match ins with
  | Bin (o, d, a, b) -> def d; op a; str " "; str (Ast.binop_name o); str " "; op b
  | Un (o, d, a) -> def d; str (Ast.unop_name o); str " "; op a
  | Mov (d, a) -> def d; op a
  | Load (t, w, d, a, off) ->
    def d;
    str (match t with Ty.I64 -> "load.i64." | Ty.F64 -> "load.f64.");
    str (string_of_int (Ty.bytes_of_width w)); str " ["; op a; str " + ";
    str (string_of_int off); str "]"
  | Store (w, a, off, v) ->
    str "store."; str (string_of_int (Ty.bytes_of_width w)); str " ["; op a;
    str " + "; str (string_of_int off); str "] = "; op v
  | Call (d, name, args) ->
    Option.iter def d;
    str "call "; str name; str "(";
    List.iteri (fun k a -> if k > 0 then str ", "; op a) args;
    str ")"

let add_term buf term =
  let str = Buffer.add_string buf and op = add_operand buf in
  match term with
  | Jmp l -> str "jmp "; str l
  | Br (c, l1, l2) -> str "br "; op c; str " ? "; str l1; str " : "; str l2
  | Ret None -> str "ret"
  | Ret (Some v) -> str "ret "; op v

let printer add ppf x =
  let buf = Buffer.create 32 in
  add buf x;
  Format.pp_print_string ppf (Buffer.contents buf)

let pp_operand = printer add_operand
let pp_ins = printer add_ins
let pp_term = printer add_term

let pp_block ppf b =
  Format.fprintf ppf "@[<v 2>%s:@,%a%s%a@]" b.label
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_ins)
    b.ins
    (if b.ins = [] then "" else "\n")
    pp_term b.term

let pp_func ppf f =
  Format.fprintf ppf "@[<v 2>func %s:@,%a@]" f.name
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_block)
    f.blocks

let pp_program ppf p =
  Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_func ppf p.funcs

let pp ppf p =
  Format.fprintf ppf "@[<v>";
  List.iter (fun g -> Format.fprintf ppf "%a@," Ast.pp_global g) p.globals;
  pp_program ppf p;
  Format.fprintf ppf "@]"

let to_string p = Format.asprintf "%a@." pp p
