module Ast = Trips_tir.Ast
module Ty = Trips_tir.Ty
module Rng = Trips_util.Rng
open Ast.Infix

type cfg = {
  max_stmts : int;
  max_depth : int;
  max_funcs : int;
  max_expr_depth : int;
}

let default_cfg = { max_stmts = 24; max_depth = 3; max_funcs = 3; max_expr_depth = 4 }

(* Shared globals every generated program aliases through.  Sizes are powers
   of two so in-bounds address masks are cheap to construct. *)
let g_int1 = "gA"
let g_int2 = "gB"
let g_flt = "gF"
let g_size = 256

type fsig = {
  fs_name : string;
  fs_params : Ty.t list;
  fs_ret : Ty.t;
  fs_depth_first : bool; (* recursive: first arg is a small depth budget *)
}

type ctx = {
  rng : Rng.t;
  cfg : cfg;
  mutable fresh : int;
  mutable budget : int;          (* statements remaining for this function *)
  mutable funcs : fsig list;     (* callable helpers, in definition order *)
  mutable ints : string list;    (* definitely-assigned int vars *)
  mutable flts : string list;    (* definitely-assigned float vars *)
  ret : Ty.t;                    (* current function's return type *)
}

let fresh ctx prefix =
  ctx.fresh <- ctx.fresh + 1;
  Printf.sprintf "%s%d" prefix ctx.fresh

let pick rng arr = arr.(Rng.int rng (Array.length arr))

let int_consts =
  [| 0L; 1L; 2L; 3L; 5L; 7L; 8L; -1L; -2L; 17L; 63L; 64L; 255L; 4096L;
     0xFF00FFL; 0x123456789AL; Int64.max_int; Int64.min_int |]

let flt_consts =
  [| 0.; 1.; -1.; 0.5; 2.0; 3.25; -2.75; 100.; 1e6; 1.5e-3; 1e18; -1e18 |]

let shift_consts = [| 0L; 1L; 3L; 7L; 31L; 63L; 64L; 65L; 127L; -1L |]

let int_binops = [| Ast.Add; Sub; Mul; And; Or; Xor |]
let cmp_binops = [| Ast.Eq; Ne; Lt; Le; Gt; Ge; Ult; Ule |]
let fcmp_binops = [| Ast.Feq; Fne; Flt; Fle; Fgt; Fge |]
let fbinops = [| Ast.Fadd; Fsub; Fmul; Fdiv |]
let shift_binops = [| Ast.Shl; Lsr; Asr |]
let ext_unops =
  [| Ast.Neg; Not; Sext Ty.W1; Sext Ty.W2; Sext Ty.W4; Zext Ty.W1;
     Zext Ty.W2; Zext Ty.W4 |]

let callable ctx want =
  List.filter (fun s -> s.fs_ret = want) ctx.funcs

(* An in-bounds, width-aligned address into global [gl]:
   &gl + ((idx & (cells-1)) << log2 width). *)
let address ~width ~gl idx =
  let bytes = Ty.bytes_of_width width in
  let cells = g_size / bytes in
  let shift = match width with Ty.W1 -> 0 | W2 -> 1 | W4 -> 2 | W8 -> 3 in
  g gl +: ((idx &: i (cells - 1)) <<: i shift)

let rec int_expr ctx d =
  if d <= 0 then int_leaf ctx
  else
    match Rng.int ctx.rng 100 with
    | n when n < 10 -> int_leaf ctx
    | n when n < 42 ->
      Ast.Bin (pick ctx.rng int_binops, int_expr ctx (d - 1), int_expr ctx (d - 1))
    | n when n < 50 ->
      (* Division and remainder: force the divisor nonzero with `| 1`
         (Int64 division saturates on min_int / -1, so -1 is fine too). *)
      let op = if Rng.bool ctx.rng then Ast.Div else Ast.Rem in
      let divisor =
        if Rng.int ctx.rng 3 = 0 then
          i64 (pick ctx.rng [| 1L; 2L; 3L; 7L; -1L; 255L; Int64.min_int |])
        else int_expr ctx (d - 1) |: i 1
      in
      Ast.Bin (op, int_expr ctx (d - 1), divisor)
    | n when n < 60 ->
      let count =
        if Rng.bool ctx.rng then i64 (pick ctx.rng shift_consts)
        else int_expr ctx (d - 1)
      in
      Ast.Bin (pick ctx.rng shift_binops, int_expr ctx (d - 1), count)
    | n when n < 70 ->
      Ast.Bin (pick ctx.rng cmp_binops, int_expr ctx (d - 1), int_expr ctx (d - 1))
    | n when n < 76 ->
      Ast.Bin (pick ctx.rng fcmp_binops, flt_expr ctx (d - 1), flt_expr ctx (d - 1))
    | n when n < 84 -> Ast.Un (pick ctx.rng ext_unops, int_expr ctx (d - 1))
    | n when n < 89 -> Ast.Un (Ast.Ftoi, flt_expr ctx (d - 1))
    | n when n < 96 -> int_load ctx (d - 1)
    | _ -> (
      match callable ctx Ty.I64 with
      | [] -> int_leaf ctx
      | fs -> call_expr ctx (d - 1) (pick ctx.rng (Array.of_list fs)))

and int_leaf ctx =
  match ctx.ints with
  | [] -> i64 (pick ctx.rng int_consts)
  | vars ->
    if Rng.int ctx.rng 5 < 3 then v (pick ctx.rng (Array.of_list vars))
    else i64 (pick ctx.rng int_consts)

and int_load ctx d =
  let width = pick ctx.rng [| Ty.W8; W8; W4; W2; W1 |] in
  let gl = pick ctx.rng [| g_int1; g_int1; g_int2; g_flt |] in
  Ast.Load (Ty.I64, width, address ~width ~gl (int_expr ctx d))

and flt_expr ctx d =
  if d <= 0 then flt_leaf ctx
  else
    match Rng.int ctx.rng 100 with
    | n when n < 15 -> flt_leaf ctx
    | n when n < 55 ->
      Ast.Bin (pick ctx.rng fbinops, flt_expr ctx (d - 1), flt_expr ctx (d - 1))
    | n when n < 63 -> Ast.Un (Ast.Fneg, flt_expr ctx (d - 1))
    | n when n < 78 -> Ast.Un (Ast.Itof, int_expr ctx (d - 1))
    | n when n < 92 -> ldf (address ~width:Ty.W8 ~gl:g_flt (int_expr ctx (d - 1)))
    | _ -> (
      match callable ctx Ty.F64 with
      | [] -> flt_leaf ctx
      | fs -> call_expr ctx (d - 1) (pick ctx.rng (Array.of_list fs)))

and flt_leaf ctx =
  match ctx.flts with
  | [] -> f (pick ctx.rng flt_consts)
  | vars ->
    if Rng.int ctx.rng 5 < 3 then v (pick ctx.rng (Array.of_list vars))
    else f (pick ctx.rng flt_consts)

and call_expr ctx d fs =
  let args =
    List.mapi
      (fun k t ->
        if k = 0 && fs.fs_depth_first then i (Rng.int ctx.rng 6)
        else
          match t with
          | Ty.I64 -> int_expr ctx (min d 2)
          | Ty.F64 -> flt_expr ctx (min d 2))
      fs.fs_params
  in
  call fs.fs_name args

let expr_of ctx ty d =
  match ty with Ty.I64 -> int_expr ctx d | Ty.F64 -> flt_expr ctx d

(* A variable to assign: mostly fresh, sometimes an existing one of the same
   type.  Never a while-counter ('w'), for-loop variable ('k') or recursion
   depth ('d') — rebinding any of those could break the termination
   argument. *)
let assign_target ctx ty =
  let pool =
    (match ty with Ty.I64 -> ctx.ints | Ty.F64 -> ctx.flts)
    |> List.filter (fun x -> x.[0] <> 'w' && x.[0] <> 'k' && x.[0] <> 'd')
  in
  if pool <> [] && Rng.int ctx.rng 3 = 0 then
    pick ctx.rng (Array.of_list pool)
  else fresh ctx (match ty with Ty.I64 -> "i" | Ty.F64 -> "x")

let note_assign ctx ty x =
  match ty with
  | Ty.I64 -> if not (List.mem x ctx.ints) then ctx.ints <- x :: ctx.ints
  | Ty.F64 -> if not (List.mem x ctx.flts) then ctx.flts <- x :: ctx.flts

let edepth ctx = 1 + Rng.int ctx.rng ctx.cfg.max_expr_depth

let rec gen_stmt ctx depth : Ast.stmt list =
  ctx.budget <- ctx.budget - 1;
  let can_nest = depth > 0 && ctx.budget > 1 in
  match Rng.int ctx.rng 100 with
  | n when n < 24 ->
    let ty = if Rng.int ctx.rng 4 = 0 then Ty.F64 else Ty.I64 in
    let x = assign_target ctx ty in
    let e = expr_of ctx ty (edepth ctx) in
    note_assign ctx ty x;
    [ set x e ]
  | n when n < 42 ->
    (* Stores are over-weighted relative to a uniform mix: computed
       addresses into shared globals are what exercise the alias
       partition, the LSID relaxation and its validator. *)
    let width = pick ctx.rng [| Ty.W8; W8; W4; W2; W1 |] in
    let gl = pick ctx.rng [| g_int1; g_int1; g_int2; g_int2; g_flt |] in
    let addr = address ~width ~gl (int_expr ctx (edepth ctx)) in
    [ Ast.Store (width, addr, int_expr ctx (edepth ctx)) ]
  | n when n < 50 ->
    let addr = address ~width:Ty.W8 ~gl:g_flt (int_expr ctx (edepth ctx)) in
    [ stf addr (flt_expr ctx (edepth ctx)) ]
  | n when n < 71 && can_nest ->
    (* Both arms are usually populated: two-sided ifs become predicated
       hyperblock halves, the shape the global branch-folding pass and
       the dead-branch analysis have to be sound on. *)
    let c = int_expr ctx (edepth ctx) in
    let t = gen_body ctx (depth - 1) (1 + Rng.int ctx.rng 3) in
    let e =
      if Rng.int ctx.rng 4 < 3 then
        gen_body ctx (depth - 1) (1 + Rng.int ctx.rng 2)
      else []
    in
    [ if_ c t e ]
  | n when n < 79 && can_nest ->
    (* Bounded while: a dedicated counter strictly decreases each iteration;
       the condition may add an arbitrary early-exit conjunct. *)
    ctx.budget <- ctx.budget - 2;
    let w = fresh ctx "w" in
    let n0 = 1 + Rng.int ctx.rng 12 in
    let cond =
      if Rng.int ctx.rng 3 = 0 then (v w >: i 0) &: (int_expr ctx 2 <>: i 0)
      else v w >: i 0
    in
    let saved_i = ctx.ints and saved_f = ctx.flts in
    ctx.ints <- w :: ctx.ints;
    let body = body_stmts ctx (depth - 1) (1 + Rng.int ctx.rng 3) in
    ctx.ints <- saved_i;
    ctx.flts <- saved_f;
    [ set w (i n0); while_ cond (body @ [ set w (v w -: i 1) ]) ]
  | n when n < 92 && can_nest ->
    let k = fresh ctx "k" in
    let lo = Rng.int_in ctx.rng (-4) 8 in
    let span = 1 + Rng.int ctx.rng 16 in
    let step = pick ctx.rng [| 1L; 1L; 2L; -1L |] in
    let lo, hi = if step < 0L then (lo + span, lo) else (lo, lo + span) in
    let saved_i = ctx.ints and saved_f = ctx.flts in
    ctx.ints <- k :: ctx.ints;
    let body = body_stmts ctx (depth - 1) (1 + Rng.int ctx.rng 3) in
    ctx.ints <- saved_i;
    ctx.flts <- saved_f;
    note_assign ctx Ty.I64 k;
    [ for_step k (i lo) (i hi) step body ]
  | _ -> (
    match ctx.funcs with
    | [] ->
      let x = assign_target ctx Ty.I64 in
      let e = int_expr ctx (edepth ctx) in
      note_assign ctx Ty.I64 x;
      [ set x e ]
    | fs ->
      let s = pick ctx.rng (Array.of_list fs) in
      let e = call_expr ctx 2 s in
      if Rng.bool ctx.rng then [ Ast.Expr e ]
      else begin
        let x = assign_target ctx s.fs_ret in
        note_assign ctx s.fs_ret x;
        [ set x e ]
      end)

(* Statements for a nested body: locals introduced inside are forgotten at
   the join, matching the typechecker's conservative scoping. *)
and gen_body ctx depth n =
  let saved_i = ctx.ints and saved_f = ctx.flts in
  let body = body_stmts ctx depth n in
  ctx.ints <- saved_i;
  ctx.flts <- saved_f;
  body

and body_stmts ctx depth n =
  (* Explicit loop: the rng is mutable, so evaluation order must be fixed. *)
  let acc = ref [] in
  for _ = 1 to n do
    if ctx.budget > 0 then acc := gen_stmt ctx depth :: !acc
  done;
  List.concat (List.rev !acc)

let gen_globals rng : Ast.global list =
  let cells n k = Ast.Init.init Ty.W8 n (fun _ -> k ()) in
  [
    Ast.global g_int1 ~init:(cells 8 (fun () -> Rng.next rng)) g_size;
    Ast.global g_int2 g_size;
    Ast.global g_flt
      ~init:
        (cells 8 (fun () ->
             Int64.bits_of_float (Rng.float rng 16.0 -. 8.0)))
      g_size;
  ]

let ret_stmt e = Ast.Return (Some e)

(* Recursive helpers take an explicit depth budget as their first parameter
   and only recurse (at most twice) in the return expression, so total call
   counts stay tiny. *)
let gen_helper ctx_rng cfg idx prev =
  let name = Printf.sprintf "f%d" idx in
  let recursive = Rng.int ctx_rng 3 > 0 in
  let ret = if Rng.int ctx_rng 3 = 0 then Ty.F64 else Ty.I64 in
  let extra_param =
    if Rng.bool ctx_rng then
      [ ((if Rng.bool ctx_rng then "a" else "b"),
         if Rng.int ctx_rng 4 = 0 then Ty.F64 else Ty.I64) ]
    else []
  in
  let params =
    if recursive then ("d", Ty.I64) :: extra_param else extra_param
  in
  let ctx =
    {
      rng = ctx_rng;
      cfg;
      fresh = 0;
      budget = 3 + Rng.int ctx_rng 4;
      funcs = prev;
      ints = List.filter_map (fun (x, t) -> if t = Ty.I64 then Some x else None) params;
      flts = List.filter_map (fun (x, t) -> if t = Ty.F64 then Some x else None) params;
      ret;
    }
  in
  let self =
    {
      fs_name = name;
      fs_params = List.map snd params;
      fs_ret = ret;
      fs_depth_first = recursive;
    }
  in
  let base = expr_of ctx ret 2 in
  let stmts = body_stmts ctx 1 (2 + Rng.int ctx_rng 3) in
  let final =
    let e = expr_of ctx ret (edepth ctx) in
    if not recursive then e
    else begin
      (* Self-call with d-1; appears once or twice in the return value. *)
      let self_call () =
        let args =
          List.mapi
            (fun k t ->
              if k = 0 then v "d" -: i 1
              else match t with
                | Ty.I64 -> int_expr ctx 2
                | Ty.F64 -> flt_expr ctx 2)
            self.fs_params
        in
        call name args
      in
      match ret with
      | Ty.I64 ->
        if Rng.int ctx.rng 3 = 0 then (self_call () +: self_call ()) ^: e
        else self_call () +: e
      | Ty.F64 -> self_call () +.: e
    end
  in
  let body =
    if recursive then
      if_ (v "d" <=: i 0) [ ret_stmt base ] [] :: stmts @ [ ret_stmt final ]
    else stmts @ [ ret_stmt final ]
  in
  (Ast.func name ~params ~ret body, self)

let gen_main rng cfg funcs =
  let ctx =
    {
      rng;
      cfg;
      fresh = 0;
      budget = max 4 (cfg.max_stmts - 4);
      funcs;
      ints = [];
      flts = [];
      ret = Ty.I64;
    }
  in
  let stmts = body_stmts ctx cfg.max_depth (cfg.max_stmts * 2) in
  (* Epilogue: checksum both integer globals into the return value so
     memory effects are visible in the result as well as the image diff. *)
  let acc = "acc" in
  let kv = "ks" in
  let epilogue =
    [
      set acc (i 0);
      for_ kv (i 0) (i (g_size / 8))
        [
          set acc
            ((v acc *: i 31)
            +: (ld8 (g g_int1 +: (v kv <<: i 3))
               ^: ld8 (g g_int2 +: (v kv <<: i 3))));
        ];
    ]
  in
  let var_mix =
    List.fold_left (fun e x -> e ^: v x) (v acc)
      (List.filteri (fun k _ -> k < 4) ctx.ints)
  in
  let flt_mix =
    match ctx.flts with
    | [] -> var_mix
    | x :: _ -> var_mix +: Ast.Un (Ast.Ftoi, v x *.: f 0.5)
  in
  Ast.func "main" ~ret:Ty.I64 (stmts @ epilogue @ [ ret flt_mix ])

let gen_program ?(cfg = default_cfg) ~seed () : Ast.program =
  let rng = Rng.create (Int64.of_int seed) in
  let globals = gen_globals rng in
  let n_funcs = Rng.int rng (cfg.max_funcs + 1) in
  let helpers = ref [] and sigs = ref [] in
  for idx = 0 to n_funcs - 1 do
    let f, s = gen_helper rng cfg idx !sigs in
    helpers := f :: !helpers;
    sigs := !sigs @ [ s ]
  done;
  let main = gen_main rng cfg !sigs in
  Ast.program ~globals (List.rev !helpers @ [ main ])
