type t = {
  mem : Bytes.t;
  symbols : (string * int) list;
  scratch : int;
}

let base_address = 0x1000

let align_up n a = (n + a - 1) / a * a

let layout (globals : Ast.global list) =
  let cursor = ref base_address in
  List.map
    (fun (global : Ast.global) ->
      let a = align_up !cursor global.align in
      cursor := a + global.size;
      (global.gname, a))
    globals

let build ?mem_kb (globals : Ast.global list) =
  let symbols = layout globals in
  let cursor = ref base_address in
  List.iter (fun (_, a) -> cursor := max !cursor a) symbols;
  List.iter2
    (fun (global : Ast.global) (_, a) -> cursor := max !cursor (a + global.size))
    globals symbols;
  let scratch = align_up !cursor 64 in
  let total =
    match mem_kb with
    | Some kb -> kb * 1024
    | None -> align_up (scratch + 256 * 1024) 4096
  in
  if total < scratch then invalid_arg "Image.build: mem_kb too small for globals";
  let mem = Bytes.make total '\000' in
  (* Apply initializers: packed values laid out sequentially from the base. *)
  List.iter
    (fun (global : Ast.global) ->
      Option.iter
        (fun init -> Ast.Init.blit init mem (List.assoc global.gname symbols))
        global.init)
    globals;
  { mem; symbols; scratch }

let addr_of t name = List.assoc name t.symbols
let size t = Bytes.length t.mem
let stack_base t = Bytes.length t.mem - 16
let copy t = { t with mem = Bytes.copy t.mem }

(* [addr > length - bytes] rather than [addr + bytes > length]: a huge
   address from wrapped pointer arithmetic would overflow the sum past
   [max_int] and slip through the bound. *)
let check t addr bytes =
  if addr < 0 || addr > Bytes.length t.mem - bytes then
    raise (Semantics.Trap (Printf.sprintf "memory access out of range: 0x%x (%d bytes)" addr bytes))

let[@inline] raw_load t w addr =
  check t addr (Ty.bytes_of_width w);
  match (w : Ty.width) with
  | Ty.W1 -> Int64.of_int (Bytes.get_uint8 t.mem addr)
  | Ty.W2 -> Int64.of_int (Bytes.get_uint16_le t.mem addr)
  | Ty.W4 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le t.mem addr)) 0xFFFFFFFFL
  | Ty.W8 -> Bytes.get_int64_le t.mem addr

let load_u t w addr = raw_load t w addr

let load t ty w addr =
  match (ty : Ty.t) with
  | Ty.I64 -> Ty.Vi (Semantics.zext w (raw_load t w addr))
  | Ty.F64 ->
    if w <> Ty.W8 then invalid_arg "Image.load: float loads must be 8 bytes";
    Ty.Vf (Int64.float_of_bits (raw_load t Ty.W8 addr))

let[@inline] store_bits t w addr raw =
  check t addr (Ty.bytes_of_width w);
  match w with
  | Ty.W1 -> Bytes.set_uint8 t.mem addr (Int64.to_int raw land 0xFF)
  | Ty.W2 -> Bytes.set_uint16_le t.mem addr (Int64.to_int raw land 0xFFFF)
  | Ty.W4 -> Bytes.set_int32_le t.mem addr (Int64.to_int32 raw)
  | Ty.W8 -> Bytes.set_int64_le t.mem addr raw

(* Lane transfers: the 64 bits move between memory and slot [k] of a
   lane's bytes without crossing a module boundary as an [int64], which
   would box them ([raw_load] and [store_bits] are inlined here). *)
let load_lane t w addr lane k = Bytes.set_int64_le lane (k lsl 3) (raw_load t w addr)
let store_lane t w addr lane k = store_bits t w addr (Bytes.get_int64_le lane (k lsl 3))

let store t w addr (value : Ty.value) =
  store_bits t w addr
    (match value with Ty.Vi i -> i | Ty.Vf f -> Int64.bits_of_float f)

let equal a b = Bytes.equal a.mem b.mem

let checksum t =
  (* cover the program-data region only: the area above the globals is
     runtime stack/scratch, which ABIs are free to use differently *)
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to t.scratch - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (Bytes.get t.mem i)))) 0x100000001b3L
  done;
  !h
