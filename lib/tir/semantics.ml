exception Trap of string

let sext w x =
  match (w : Ty.width) with
  | Ty.W1 -> Int64.shift_right (Int64.shift_left x 56) 56
  | Ty.W2 -> Int64.shift_right (Int64.shift_left x 48) 48
  | Ty.W4 -> Int64.shift_right (Int64.shift_left x 32) 32
  | Ty.W8 -> x

let zext w x =
  match (w : Ty.width) with
  | Ty.W1 -> Int64.logand x 0xFFL
  | Ty.W2 -> Int64.logand x 0xFFFFL
  | Ty.W4 -> Int64.logand x 0xFFFFFFFFL
  | Ty.W8 -> x

let v_true = Ty.Vi 1L
let v_false = Ty.Vi 0L
let bool_val b = if b then v_true else v_false

let shift_amount b = Int64.to_int (Int64.logand (Ty.as_int b) 63L)

(* Float comparisons use [Float.compare], a total order, not the IEEE
   operators: [nan] equals itself and sorts below every other float, so
   [Feq nan nan = 1], [Fne nan nan = 0] and [Flt nan 1.0 = 1].  Every
   pipeline (interpreter, EDGE and RISC emulators) shares this
   definition, so the golden results depend on it. *)
let binop (op : Ast.binop) (a : Ty.value) (b : Ty.value) : Ty.value =
  match op with
  | Ast.Add -> Ty.Vi (Int64.add (Ty.as_int a) (Ty.as_int b))
  | Ast.Sub -> Ty.Vi (Int64.sub (Ty.as_int a) (Ty.as_int b))
  | Ast.Mul -> Ty.Vi (Int64.mul (Ty.as_int a) (Ty.as_int b))
  | Ast.Div ->
    let d = Ty.as_int b in
    if d = 0L then raise (Trap "integer division by zero");
    Ty.Vi (Int64.div (Ty.as_int a) d)
  | Ast.Rem ->
    let d = Ty.as_int b in
    if d = 0L then raise (Trap "integer remainder by zero");
    Ty.Vi (Int64.rem (Ty.as_int a) d)
  | Ast.And -> Ty.Vi (Int64.logand (Ty.as_int a) (Ty.as_int b))
  | Ast.Or -> Ty.Vi (Int64.logor (Ty.as_int a) (Ty.as_int b))
  | Ast.Xor -> Ty.Vi (Int64.logxor (Ty.as_int a) (Ty.as_int b))
  | Ast.Shl -> Ty.Vi (Int64.shift_left (Ty.as_int a) (shift_amount b))
  | Ast.Lsr -> Ty.Vi (Int64.shift_right_logical (Ty.as_int a) (shift_amount b))
  | Ast.Asr -> Ty.Vi (Int64.shift_right (Ty.as_int a) (shift_amount b))
  | Ast.Eq -> bool_val (Int64.equal (Ty.as_int a) (Ty.as_int b))
  | Ast.Ne -> bool_val (not (Int64.equal (Ty.as_int a) (Ty.as_int b)))
  | Ast.Lt -> bool_val (Int64.compare (Ty.as_int a) (Ty.as_int b) < 0)
  | Ast.Le -> bool_val (Int64.compare (Ty.as_int a) (Ty.as_int b) <= 0)
  | Ast.Gt -> bool_val (Int64.compare (Ty.as_int a) (Ty.as_int b) > 0)
  | Ast.Ge -> bool_val (Int64.compare (Ty.as_int a) (Ty.as_int b) >= 0)
  | Ast.Ult -> bool_val (Int64.unsigned_compare (Ty.as_int a) (Ty.as_int b) < 0)
  | Ast.Ule -> bool_val (Int64.unsigned_compare (Ty.as_int a) (Ty.as_int b) <= 0)
  | Ast.Fadd -> Ty.Vf (Ty.as_float a +. Ty.as_float b)
  | Ast.Fsub -> Ty.Vf (Ty.as_float a -. Ty.as_float b)
  | Ast.Fmul -> Ty.Vf (Ty.as_float a *. Ty.as_float b)
  | Ast.Fdiv -> Ty.Vf (Ty.as_float a /. Ty.as_float b)
  | Ast.Feq -> bool_val (Float.compare (Ty.as_float a) (Ty.as_float b) = 0)
  | Ast.Fne -> bool_val (Float.compare (Ty.as_float a) (Ty.as_float b) <> 0)
  | Ast.Flt -> bool_val (Float.compare (Ty.as_float a) (Ty.as_float b) < 0)
  | Ast.Fle -> bool_val (Float.compare (Ty.as_float a) (Ty.as_float b) <= 0)
  | Ast.Fgt -> bool_val (Float.compare (Ty.as_float a) (Ty.as_float b) > 0)
  | Ast.Fge -> bool_val (Float.compare (Ty.as_float a) (Ty.as_float b) >= 0)

let unop (op : Ast.unop) (a : Ty.value) : Ty.value =
  match op with
  | Ast.Neg -> Ty.Vi (Int64.neg (Ty.as_int a))
  | Ast.Not -> Ty.Vi (Int64.lognot (Ty.as_int a))
  | Ast.Fneg -> Ty.Vf (-.Ty.as_float a)
  | Ast.Itof -> Ty.Vf (Int64.to_float (Ty.as_int a))
  | Ast.Ftoi -> Ty.Vi (Int64.of_float (Ty.as_float a))
  | Ast.Sext w -> Ty.Vi (sext w (Ty.as_int a))
  | Ast.Zext w -> Ty.Vi (zext w (Ty.as_int a))
