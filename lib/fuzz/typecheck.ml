module Ast = Trips_tir.Ast
module Ty = Trips_tir.Ty

exception Ill_typed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Ill_typed s)) fmt

module SS = Set.Make (String)

type fsig = { s_params : Ty.t list; s_ret : Ty.t option }

type env = {
  globals : SS.t;
  sigs : (string, fsig) Hashtbl.t;
  tymap : (string, Ty.t) Hashtbl.t; (* every var ever assigned, per function *)
  mutable defined : SS.t;           (* definitely assigned at this point *)
}

let is_float_binop (op : Ast.binop) =
  match op with
  | Fadd | Fsub | Fmul | Fdiv | Feq | Fne | Flt | Fle | Fgt | Fge -> true
  | _ -> false

let float_binop_ret (op : Ast.binop) =
  match op with Fadd | Fsub | Fmul | Fdiv -> Ty.F64 | _ -> Ty.I64

let rec type_expr env (e : Ast.expr) : Ty.t option =
  match e with
  | Int _ -> Some Ty.I64
  | Flt _ -> Some Ty.F64
  | Var x ->
    if not (SS.mem x env.defined) then fail "use of possibly-undefined var %s" x;
    Some (Hashtbl.find env.tymap x)
  | Glo g ->
    if not (SS.mem g env.globals) then fail "unknown global %s" g;
    Some Ty.I64
  | Bin (op, a, b) ->
    let ta = operand env a and tb = operand env b in
    if is_float_binop op then begin
      if ta <> Ty.F64 || tb <> Ty.F64 then
        fail "float binop %s applied to non-float operands" (Ast.binop_name op);
      Some (float_binop_ret op)
    end
    else begin
      if ta <> Ty.I64 || tb <> Ty.I64 then
        fail "int binop %s applied to non-int operands" (Ast.binop_name op);
      Some Ty.I64
    end
  | Un (op, a) ->
    let ta = operand env a in
    let need want got name =
      if got <> want then fail "unop %s operand type mismatch" name
    in
    (match op with
    | Neg | Not | Sext _ | Zext _ ->
      need Ty.I64 ta (Ast.unop_name op);
      Some Ty.I64
    | Fneg ->
      need Ty.F64 ta "fneg";
      Some Ty.F64
    | Itof ->
      need Ty.I64 ta "itof";
      Some Ty.F64
    | Ftoi ->
      need Ty.F64 ta "ftoi";
      Some Ty.I64)
  | Load (t, w, a) ->
    if operand env a <> Ty.I64 then fail "load address is not an int";
    if t = Ty.F64 && w <> Ty.W8 then fail "f64 load must have width 8";
    Some t
  | Call (f, args) ->
    let s =
      try Hashtbl.find env.sigs f with Not_found -> fail "call to unknown %s" f
    in
    if List.length args <> List.length s.s_params then
      fail "call %s: arity mismatch" f;
    List.iter2
      (fun a t ->
        if operand env a <> t then fail "call %s: argument type mismatch" f)
      args s.s_params;
    s.s_ret

and operand env e =
  match type_expr env e with
  | Some t -> t
  | None -> fail "void call used as a value"

let bind env x t =
  (match Hashtbl.find_opt env.tymap x with
  | Some t' when t' <> t -> fail "var %s rebound at a different type" x
  | _ -> ());
  Hashtbl.replace env.tymap x t;
  env.defined <- SS.add x env.defined

let rec check_stmt env ~ret (s : Ast.stmt) =
  match s with
  | Let (x, e) -> bind env x (operand env e)
  | Store (w, a, v) ->
    if operand env a <> Ty.I64 then fail "store address is not an int";
    (match operand env v with
    | Ty.I64 -> ()
    | Ty.F64 -> if w <> Ty.W8 then fail "f64 store must have width 8")
  | If (c, t, e) ->
    if operand env c <> Ty.I64 then fail "if condition is not an int";
    let base = env.defined in
    check_body env ~ret t;
    let dt = env.defined in
    env.defined <- base;
    check_body env ~ret e;
    let de = env.defined in
    env.defined <- SS.inter dt de
  | While (c, b) ->
    if operand env c <> Ty.I64 then fail "while condition is not an int";
    let base = env.defined in
    check_body env ~ret b;
    env.defined <- base
  | For (x, lo, hi, step, b) ->
    if step = 0L then fail "for step must be nonzero";
    if operand env lo <> Ty.I64 then fail "for lower bound is not an int";
    if operand env hi <> Ty.I64 then fail "for upper bound is not an int";
    bind env x Ty.I64;
    let base = env.defined in
    check_body env ~ret b;
    env.defined <- base
  | Expr e -> ignore (type_expr env e)
  | Return None -> if ret <> None then fail "bare return in a value function"
  | Return (Some e) ->
    let t = operand env e in
    if ret <> Some t then fail "return type mismatch"

and check_body env ~ret stmts = List.iter (check_stmt env ~ret) stmts

(* A value-returning function must not fall off the end of its body: the
   interpreter would yield no result where the backends' ABI register
   conventions yield one, a divergence that is a program bug, not a
   compiler bug. *)
let rec definitely_returns body = List.exists returns_stmt body

and returns_stmt (s : Ast.stmt) =
  match s with
  | Ast.Return _ -> true
  | Ast.If (_, t, e) -> definitely_returns t && definitely_returns e
  | _ -> false

let check (p : Ast.program) : (unit, string) result =
  try
    let globals =
      List.fold_left
        (fun acc (g : Ast.global) ->
          if SS.mem g.gname acc then fail "duplicate global %s" g.gname;
          if g.size <= 0 then fail "global %s has nonpositive size" g.gname;
          SS.add g.gname acc)
        SS.empty p.globals
    in
    let sigs = Hashtbl.create 16 in
    List.iter
      (fun (f : Ast.func) ->
        if Hashtbl.mem sigs f.fname then fail "duplicate function %s" f.fname;
        Hashtbl.add sigs f.fname
          { s_params = List.map snd f.params; s_ret = f.ret })
      p.funcs;
    List.iter
      (fun (f : Ast.func) ->
        let env =
          { globals; sigs; tymap = Hashtbl.create 32; defined = SS.empty }
        in
        List.iter (fun (x, t) -> bind env x t) f.params;
        if f.ret <> None && not (definitely_returns f.body) then
          fail "%s: may fall off the end without returning" f.fname;
        try check_body env ~ret:f.ret f.body
        with Ill_typed m -> fail "%s: %s" f.fname m)
      p.funcs;
    Ok ()
  with Ill_typed m -> Error m

(* AST size: one unit per expression node and per statement. *)

let rec size_expr (e : Ast.expr) =
  match e with
  | Int _ | Flt _ | Var _ | Glo _ -> 1
  | Bin (_, a, b) -> 1 + size_expr a + size_expr b
  | Un (_, a) | Load (_, _, a) -> 1 + size_expr a
  | Call (_, args) -> List.fold_left (fun n a -> n + size_expr a) 1 args

let rec size_stmt (s : Ast.stmt) =
  match s with
  | Let (_, e) | Expr e | Return (Some e) -> 1 + size_expr e
  | Return None -> 1
  | Store (_, a, v) -> 1 + size_expr a + size_expr v
  | If (c, t, e) -> 1 + size_expr c + size_body t + size_body e
  | While (c, b) -> 1 + size_expr c + size_body b
  | For (_, lo, hi, _, b) -> 1 + size_expr lo + size_expr hi + size_body b

and size_body b = List.fold_left (fun n s -> n + size_stmt s) 0 b

let size_func (f : Ast.func) = size_body f.body

let size_global (g : Ast.global) =
  1 + match g.init with None -> 0 | Some cells -> Ast.Init.length cells

let size_program (p : Ast.program) =
  List.fold_left (fun n g -> n + size_global g) 0 p.globals
  + List.fold_left (fun n f -> n + size_func f) 0 p.funcs

let rec stmt_count_stmt (s : Ast.stmt) =
  match s with
  | Let _ | Store _ | Expr _ | Return _ -> 1
  | If (_, t, e) -> 1 + stmt_count_body t + stmt_count_body e
  | While (_, b) | For (_, _, _, _, b) -> 1 + stmt_count_body b

and stmt_count_body b = List.fold_left (fun n s -> n + stmt_count_stmt s) 0 b

let stmt_count (p : Ast.program) =
  List.fold_left (fun n (f : Ast.func) -> n + stmt_count_body f.body) 0 p.funcs
