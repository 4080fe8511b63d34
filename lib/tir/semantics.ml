exception Trap of string

let[@inline] sext w x =
  match (w : Ty.width) with
  | Ty.W1 -> Int64.shift_right (Int64.shift_left x 56) 56
  | Ty.W2 -> Int64.shift_right (Int64.shift_left x 48) 48
  | Ty.W4 -> Int64.shift_right (Int64.shift_left x 32) 32
  | Ty.W8 -> x

let[@inline] zext w x =
  match (w : Ty.width) with
  | Ty.W1 -> Int64.logand x 0xFFL
  | Ty.W2 -> Int64.logand x 0xFFFFL
  | Ty.W4 -> Int64.logand x 0xFFFFFFFFL
  | Ty.W8 -> x

(* ------------------------------------------------------------------ *)
(* Kernels                                                             *)
(* ------------------------------------------------------------------ *)

(* Each operator is defined once, here, over unboxed [int64]/[float]
   operands, in kernels by class: integer arithmetic, integer tests,
   float arithmetic, float tests (both tests give 0/1), and the unary
   classes.  Both entry points below inline these kernels, so neither
   boxes an intermediate.  Each entry point matches the operator once
   and passes it on as a constant, so the inlined kernel's own match
   folds away. *)

(* The divisor of [Div]/[Rem] is checked after it is read and before the
   dividend is: a zero divisor traps even when the dividend is a float. *)
let[@inline] check_divisor (op : Ast.binop) y =
  match op with
  | Ast.Div -> if Int64.equal y 0L then raise (Trap "integer division by zero")
  | Ast.Rem -> if Int64.equal y 0L then raise (Trap "integer remainder by zero")
  | _ -> ()

let[@inline] shift_amount y = Int64.to_int (Int64.logand y 63L)

let[@inline] int_arith (op : Ast.binop) x y =
  match op with
  | Ast.Add -> Int64.add x y
  | Ast.Sub -> Int64.sub x y
  | Ast.Mul -> Int64.mul x y
  | Ast.Div -> Int64.div x y
  | Ast.Rem -> Int64.rem x y
  | Ast.And -> Int64.logand x y
  | Ast.Or -> Int64.logor x y
  | Ast.Xor -> Int64.logxor x y
  | Ast.Shl -> Int64.shift_left x (shift_amount y)
  | Ast.Lsr -> Int64.shift_right_logical x (shift_amount y)
  | _ -> Int64.shift_right x (shift_amount y)

let[@inline] int_test (op : Ast.binop) x y =
  match op with
  | Ast.Eq -> Int64.equal x y
  | Ast.Ne -> not (Int64.equal x y)
  | Ast.Lt -> Int64.compare x y < 0
  | Ast.Le -> Int64.compare x y <= 0
  | Ast.Gt -> Int64.compare x y > 0
  | Ast.Ge -> Int64.compare x y >= 0
  | Ast.Ult -> Int64.unsigned_compare x y < 0
  | _ -> Int64.unsigned_compare x y <= 0

let[@inline] float_arith (op : Ast.binop) (x : float) y =
  match op with
  | Ast.Fadd -> x +. y
  | Ast.Fsub -> x -. y
  | Ast.Fmul -> x *. y
  | _ -> x /. y

(* Float comparisons use [Float.compare], a total order, not the IEEE
   operators: [nan] equals itself and sorts below every other float, so
   [Feq nan nan = 1], [Fne nan nan = 0] and [Flt nan 1.0 = 1].  Every
   pipeline (interpreter, EDGE and RISC emulators) shares this
   definition, so the golden results depend on it. *)
let[@inline] float_test (op : Ast.binop) x y =
  let c = Float.compare x y in
  match op with
  | Ast.Feq -> c = 0
  | Ast.Fne -> c <> 0
  | Ast.Flt -> c < 0
  | Ast.Fle -> c <= 0
  | Ast.Fgt -> c > 0
  | _ -> c >= 0

(* Unary operators by operand and result type: integer to integer,
   float to float, and the two conversions. *)
let[@inline] int_unop (op : Ast.unop) x =
  match op with
  | Ast.Neg -> Int64.neg x
  | Ast.Not -> Int64.lognot x
  | Ast.Sext w -> sext w x
  | Ast.Zext w -> zext w x
  | _ -> x

let[@inline] fneg (x : float) = -.x
let[@inline] itof x = Int64.to_float x
let[@inline] ftoi x = Int64.of_float x

(* ------------------------------------------------------------------ *)
(* Value entry point                                                   *)
(* ------------------------------------------------------------------ *)

let v_true = Ty.Vi 1L
let v_false = Ty.Vi 0L
let bool_val b = if b then v_true else v_false

(* The second operand is read first, as the lane entry point reads it;
   [Div]/[Rem] test it for zero before reading the first. *)
let[@inline] value_int_arith op a b =
  let y = Ty.as_int b in
  check_divisor op y;
  Ty.Vi (int_arith op (Ty.as_int a) y)

let[@inline] value_int_test op a b =
  let y = Ty.as_int b in
  bool_val (int_test op (Ty.as_int a) y)

let[@inline] value_float_arith op a b =
  let y = Ty.as_float b in
  Ty.Vf (float_arith op (Ty.as_float a) y)

let[@inline] value_float_test op a b =
  let y = Ty.as_float b in
  bool_val (float_test op (Ty.as_float a) y)

let binop (op : Ast.binop) (a : Ty.value) (b : Ty.value) : Ty.value =
  match op with
  | Ast.Add -> value_int_arith Ast.Add a b
  | Ast.Sub -> value_int_arith Ast.Sub a b
  | Ast.Mul -> value_int_arith Ast.Mul a b
  | Ast.Div -> value_int_arith Ast.Div a b
  | Ast.Rem -> value_int_arith Ast.Rem a b
  | Ast.And -> value_int_arith Ast.And a b
  | Ast.Or -> value_int_arith Ast.Or a b
  | Ast.Xor -> value_int_arith Ast.Xor a b
  | Ast.Shl -> value_int_arith Ast.Shl a b
  | Ast.Lsr -> value_int_arith Ast.Lsr a b
  | Ast.Asr -> value_int_arith Ast.Asr a b
  | Ast.Eq -> value_int_test Ast.Eq a b
  | Ast.Ne -> value_int_test Ast.Ne a b
  | Ast.Lt -> value_int_test Ast.Lt a b
  | Ast.Le -> value_int_test Ast.Le a b
  | Ast.Gt -> value_int_test Ast.Gt a b
  | Ast.Ge -> value_int_test Ast.Ge a b
  | Ast.Ult -> value_int_test Ast.Ult a b
  | Ast.Ule -> value_int_test Ast.Ule a b
  | Ast.Fadd -> value_float_arith Ast.Fadd a b
  | Ast.Fsub -> value_float_arith Ast.Fsub a b
  | Ast.Fmul -> value_float_arith Ast.Fmul a b
  | Ast.Fdiv -> value_float_arith Ast.Fdiv a b
  | Ast.Feq -> value_float_test Ast.Feq a b
  | Ast.Fne -> value_float_test Ast.Fne a b
  | Ast.Flt -> value_float_test Ast.Flt a b
  | Ast.Fle -> value_float_test Ast.Fle a b
  | Ast.Fgt -> value_float_test Ast.Fgt a b
  | Ast.Fge -> value_float_test Ast.Fge a b

let unop (op : Ast.unop) (a : Ty.value) : Ty.value =
  match op with
  | Ast.Neg -> Ty.Vi (int_unop Ast.Neg (Ty.as_int a))
  | Ast.Not -> Ty.Vi (int_unop Ast.Not (Ty.as_int a))
  | Ast.Sext _ | Ast.Zext _ -> Ty.Vi (int_unop op (Ty.as_int a))
  | Ast.Fneg -> Ty.Vf (fneg (Ty.as_float a))
  | Ast.Itof -> Ty.Vf (itof (Ty.as_int a))
  | Ast.Ftoi -> Ty.Vi (ftoi (Ty.as_float a))

(* ------------------------------------------------------------------ *)
(* Lane entry point                                                    *)
(* ------------------------------------------------------------------ *)

let tag_int = 0
let tag_float = 1
let tag_null = 2

let[@inline] get_bits bits k = Bytes.get_int64_le bits (k lsl 3)

let[@inline] set_int bits tags k x =
  Bytes.set_int64_le bits (k lsl 3) x;
  tags.(k) <- tag_int

let[@inline] set_float bits tags k f =
  Bytes.set_int64_le bits (k lsl 3) (Int64.bits_of_float f);
  tags.(k) <- tag_float

let[@inline] set_bool bits tags k b = set_int bits tags k (if b then 1L else 0L)

(* A slot of the wrong type fails as the value API fails on it: with the
   exception [Ty.as_int]/[Ty.as_float] raise, taken from them once.  The
   failing branch raises rather than calling them, so the slot's bits
   stay unboxed on the path that reads them. *)
let raised f = match f () with _ -> assert false | exception e -> e
let not_int = raised (fun () -> Ty.as_int (Ty.Vf 0.))
let not_float = raised (fun () -> Ty.as_float (Ty.Vi 0L))

let[@inline] int_at bits (tags : int array) k =
  if tags.(k) = tag_int then get_bits bits k else raise not_int

let[@inline] float_at bits (tags : int array) k =
  if tags.(k) = tag_float then Int64.float_of_bits (get_bits bits k)
  else raise not_float

let[@inline] lanes_int_arith op bits tags d a b =
  let y = int_at bits tags b in
  check_divisor op y;
  set_int bits tags d (int_arith op (int_at bits tags a) y)

let[@inline] lanes_int_test op bits tags d a b =
  let y = int_at bits tags b in
  set_bool bits tags d (int_test op (int_at bits tags a) y)

let[@inline] lanes_float_arith op bits tags d a b =
  let y = float_at bits tags b in
  set_float bits tags d (float_arith op (float_at bits tags a) y)

let[@inline] lanes_float_test op bits tags d a b =
  let y = float_at bits tags b in
  set_bool bits tags d (float_test op (float_at bits tags a) y)

let binop_lanes (op : Ast.binop) bits tags d a b =
  match op with
  | Ast.Add -> lanes_int_arith Ast.Add bits tags d a b
  | Ast.Sub -> lanes_int_arith Ast.Sub bits tags d a b
  | Ast.Mul -> lanes_int_arith Ast.Mul bits tags d a b
  | Ast.Div -> lanes_int_arith Ast.Div bits tags d a b
  | Ast.Rem -> lanes_int_arith Ast.Rem bits tags d a b
  | Ast.And -> lanes_int_arith Ast.And bits tags d a b
  | Ast.Or -> lanes_int_arith Ast.Or bits tags d a b
  | Ast.Xor -> lanes_int_arith Ast.Xor bits tags d a b
  | Ast.Shl -> lanes_int_arith Ast.Shl bits tags d a b
  | Ast.Lsr -> lanes_int_arith Ast.Lsr bits tags d a b
  | Ast.Asr -> lanes_int_arith Ast.Asr bits tags d a b
  | Ast.Eq -> lanes_int_test Ast.Eq bits tags d a b
  | Ast.Ne -> lanes_int_test Ast.Ne bits tags d a b
  | Ast.Lt -> lanes_int_test Ast.Lt bits tags d a b
  | Ast.Le -> lanes_int_test Ast.Le bits tags d a b
  | Ast.Gt -> lanes_int_test Ast.Gt bits tags d a b
  | Ast.Ge -> lanes_int_test Ast.Ge bits tags d a b
  | Ast.Ult -> lanes_int_test Ast.Ult bits tags d a b
  | Ast.Ule -> lanes_int_test Ast.Ule bits tags d a b
  | Ast.Fadd -> lanes_float_arith Ast.Fadd bits tags d a b
  | Ast.Fsub -> lanes_float_arith Ast.Fsub bits tags d a b
  | Ast.Fmul -> lanes_float_arith Ast.Fmul bits tags d a b
  | Ast.Fdiv -> lanes_float_arith Ast.Fdiv bits tags d a b
  | Ast.Feq -> lanes_float_test Ast.Feq bits tags d a b
  | Ast.Fne -> lanes_float_test Ast.Fne bits tags d a b
  | Ast.Flt -> lanes_float_test Ast.Flt bits tags d a b
  | Ast.Fle -> lanes_float_test Ast.Fle bits tags d a b
  | Ast.Fgt -> lanes_float_test Ast.Fgt bits tags d a b
  | Ast.Fge -> lanes_float_test Ast.Fge bits tags d a b

let unop_lanes (op : Ast.unop) bits tags d a =
  match op with
  | Ast.Neg -> set_int bits tags d (int_unop Ast.Neg (int_at bits tags a))
  | Ast.Not -> set_int bits tags d (int_unop Ast.Not (int_at bits tags a))
  | Ast.Sext _ | Ast.Zext _ -> set_int bits tags d (int_unop op (int_at bits tags a))
  | Ast.Fneg -> set_float bits tags d (fneg (float_at bits tags a))
  | Ast.Itof -> set_float bits tags d (itof (int_at bits tags a))
  | Ast.Ftoi -> set_int bits tags d (ftoi (float_at bits tags a))
