module Ast = Trips_tir.Ast
module Ty = Trips_tir.Ty
module Image = Trips_tir.Image
module Semantics = Trips_tir.Semantics

type kind = Kplain | Kcond | Kuncond | Kcall | Kret

type retire = {
  r_pc : int;
  r_ins : Isa.ins;
  r_srcs : int list;
  r_dst : int option;
  r_mem : (int * Ty.width * bool) option;
  r_branch : (bool * int) option;
  r_kind : kind;
}

type stats = {
  mutable executed : int;
  mutable alu : int;
  mutable moves : int;
  mutable branches : int;
  mutable taken : int;
  mutable loads : int;
  mutable stores : int;
  mutable reg_reads : int;
  mutable reg_writes : int;
  mutable flops : int;
  mutable unique_pcs : int;
}

type result = { ret_int : int64; ret_flt : float; stats : stats }

let ret_value r = function
  | None -> None
  | Some Ty.I64 -> Some (Ty.Vi r.ret_int)
  | Some Ty.F64 -> Some (Ty.Vf r.ret_flt)

let bases (p : Isa.program) =
  let tbl = Hashtbl.create 16 in
  let cursor = ref 0 in
  List.iter
    (fun (f : Isa.func) ->
      Hashtbl.replace tbl f.fname !cursor;
      cursor := !cursor + Array.length f.code)
    p.funcs;
  tbl

let is_flop (ins : Isa.ins) =
  match ins with
  | Isa.Op ((Ast.Fadd | Ast.Fsub | Ast.Fmul | Ast.Fdiv), _, _, _) -> true
  | _ -> false

let float_srcs_op (op : Ast.binop) =
  match op with
  | Ast.Fadd | Ast.Fsub | Ast.Fmul | Ast.Fdiv
  | Ast.Feq | Ast.Fne | Ast.Flt | Ast.Fle | Ast.Fgt | Ast.Fge ->
    true
  | _ -> false

let float_dst_op (op : Ast.binop) =
  match op with Ast.Fadd | Ast.Fsub | Ast.Fmul | Ast.Fdiv -> true | _ -> false

let run ?(fuel = 400_000_000) ?on_retire (p : Isa.program) (image : Image.t)
    ~entry ~args =
  let stats =
    { executed = 0; alu = 0; moves = 0; branches = 0; taken = 0; loads = 0;
      stores = 0; reg_reads = 0; reg_writes = 0; flops = 0; unique_pcs = 0 }
  in
  let base_tbl = bases p in
  let funcs = Hashtbl.create 16 in
  List.iter (fun (f : Isa.func) -> Hashtbl.replace funcs f.fname f) p.funcs;
  let seen_pcs = Hashtbl.create 1024 in
  let ints = Array.make 32 0L in
  let flts = Array.make 32 0. in
  ints.(1) <- Int64.of_int (Image.stack_base image);
  (* place arguments per the ABI *)
  let int_args = ref Isa.abi_int_args and flt_args = ref Isa.abi_flt_args in
  List.iter
    (fun v ->
      match v with
      | Ty.Vi n ->
        ints.(List.hd !int_args) <- n;
        int_args := List.tl !int_args
      | Ty.Vf x ->
        flts.(List.hd !flt_args) <- x;
        flt_args := List.tl !flt_args)
    args;
  let entry_f = Hashtbl.find funcs entry in
  let stack : (int64 array * float array * Isa.func * int) list ref = ref [] in
  let cur_f = ref entry_f in
  let pc = ref 0 in
  let fuel = ref fuel in
  let finished = ref false in
  let retire ins ~srcs ~dst ~mem ~branch ~kind =
    stats.executed <- stats.executed + 1;
    (match Isa.classify ins with
    | Isa.Calu -> stats.alu <- stats.alu + 1
    | Isa.Cmove -> stats.moves <- stats.moves + 1
    | Isa.Cbranch -> stats.branches <- stats.branches + 1
    | Isa.Cmem -> ());
    stats.reg_reads <- stats.reg_reads + Isa.reg_reads ins;
    stats.reg_writes <- stats.reg_writes + Isa.reg_writes ins;
    if is_flop ins then stats.flops <- stats.flops + 1;
    let gpc = Hashtbl.find base_tbl !cur_f.Isa.fname + !pc in
    if not (Hashtbl.mem seen_pcs gpc) then begin
      Hashtbl.replace seen_pcs gpc ();
      stats.unique_pcs <- stats.unique_pcs + 1
    end;
    match on_retire with
    | None -> ()
    | Some f ->
      f { r_pc = gpc; r_ins = ins; r_srcs = srcs; r_dst = dst; r_mem = mem;
          r_branch = branch; r_kind = kind }
  in
  let ir r = r and fr r = 32 + r in
  let vi r = Ty.Vi ints.(r) and vf r = Ty.Vf flts.(r) in
  let set_i r v = ints.(r) <- Ty.as_int v in
  let set_f r v = flts.(r) <- Ty.as_float v in
  while not !finished do
    decr fuel;
    if !fuel <= 0 then raise (Semantics.Trap "RISC out of fuel");
    let code = !cur_f.Isa.code in
    if !pc < 0 || !pc >= Array.length code then
      raise (Semantics.Trap (Printf.sprintf "pc out of range in %s" !cur_f.Isa.fname));
    let ins = code.(!pc) in
    let next = ref (!pc + 1) in
    (match ins with
    | Isa.Op (op, d, a, b) ->
      let fsrc = float_srcs_op op and fdst = float_dst_op op in
      let va = if fsrc then vf a else vi a in
      let vb = if fsrc then vf b else vi b in
      let r = Semantics.binop op va vb in
      if fdst then set_f d r else set_i d r;
      retire ins
        ~srcs:[ (if fsrc then fr a else ir a); (if fsrc then fr b else ir b) ]
        ~dst:(Some (if fdst then fr d else ir d))
        ~mem:None ~branch:None ~kind:Kplain
    | Isa.Opi (op, d, a, n) ->
      let r = Semantics.binop op (vi a) (Ty.Vi n) in
      set_i d r;
      retire ins ~srcs:[ ir a ] ~dst:(Some (ir d)) ~mem:None ~branch:None ~kind:Kplain
    | Isa.Unop (op, d, a) ->
      let fsrc = match op with Ast.Ftoi | Ast.Fneg -> true | _ -> false in
      let fdst = match op with Ast.Itof | Ast.Fneg -> true | _ -> false in
      let va = if fsrc then vf a else vi a in
      let r = Semantics.unop op va in
      if fdst then set_f d r else set_i d r;
      retire ins
        ~srcs:[ (if fsrc then fr a else ir a) ]
        ~dst:(Some (if fdst then fr d else ir d))
        ~mem:None ~branch:None ~kind:Kplain
    | Isa.Li (d, n) ->
      ints.(d) <- n;
      retire ins ~srcs:[] ~dst:(Some (ir d)) ~mem:None ~branch:None ~kind:Kplain
    | Isa.Lis (d, n) ->
      ints.(d) <- Int64.shift_left n 16;
      retire ins ~srcs:[] ~dst:(Some (ir d)) ~mem:None ~branch:None ~kind:Kplain
    | Isa.Ori (d, a, n) ->
      ints.(d) <- Int64.logor ints.(a) n;
      retire ins ~srcs:[ ir a ] ~dst:(Some (ir d)) ~mem:None ~branch:None ~kind:Kplain
    | Isa.Lfc (d, v, addr) ->
      flts.(d) <- v;
      stats.loads <- stats.loads + 1;
      retire ins ~srcs:[] ~dst:(Some (fr d))
        ~mem:(Some (addr, Ty.W8, true))
        ~branch:None ~kind:Kplain
    | Isa.Mr (d, a) ->
      ints.(d) <- ints.(a);
      retire ins ~srcs:[ ir a ] ~dst:(Some (ir d)) ~mem:None ~branch:None ~kind:Kplain
    | Isa.Fmr (d, a) ->
      flts.(d) <- flts.(a);
      retire ins ~srcs:[ fr a ] ~dst:(Some (fr d)) ~mem:None ~branch:None ~kind:Kplain
    | Isa.Lw (t, w, d, a, off) ->
      let addr = Int64.to_int ints.(a) + off in
      let v = Image.load image t w addr in
      (match t with Ty.F64 -> set_f d v | Ty.I64 -> set_i d v);
      stats.loads <- stats.loads + 1;
      retire ins ~srcs:[ ir a ]
        ~dst:(Some (match t with Ty.F64 -> fr d | Ty.I64 -> ir d))
        ~mem:(Some (addr, w, true))
        ~branch:None ~kind:Kplain
    | Isa.Sw (t, w, a, off, s) ->
      let addr = Int64.to_int ints.(a) + off in
      let v = match t with Ty.F64 -> vf s | Ty.I64 -> vi s in
      Image.store image w addr v;
      stats.stores <- stats.stores + 1;
      retire ins
        ~srcs:[ ir a; (match t with Ty.F64 -> fr s | Ty.I64 -> ir s) ]
        ~dst:None
        ~mem:(Some (addr, w, false))
        ~branch:None ~kind:Kplain
    | Isa.B t ->
      next := t;
      stats.taken <- stats.taken + 1;
      retire ins ~srcs:[] ~dst:None ~mem:None
        ~branch:(Some (true, Hashtbl.find base_tbl !cur_f.Isa.fname + t))
        ~kind:Kuncond
    | Isa.Bc (r, t, f) ->
      let taken = ints.(r) <> 0L in
      next := (if taken then t else f);
      if taken then stats.taken <- stats.taken + 1;
      retire ins ~srcs:[ ir r ] ~dst:None ~mem:None
        ~branch:(Some (taken, Hashtbl.find base_tbl !cur_f.Isa.fname + !next))
        ~kind:Kcond
    | Isa.Call fname ->
      let callee =
        match Hashtbl.find_opt funcs fname with
        | Some f -> f
        | None -> raise (Semantics.Trap ("call to unknown function " ^ fname))
      in
      stack := (Array.copy ints, Array.copy flts, !cur_f, !pc + 1) :: !stack;
      stats.taken <- stats.taken + 1;
      retire ins ~srcs:[] ~dst:None ~mem:None
        ~branch:(Some (true, Hashtbl.find base_tbl fname))
        ~kind:Kcall;
      cur_f := callee;
      next := 0
    | Isa.Ret -> (
      match !stack with
      | [] ->
        retire ins ~srcs:[] ~dst:None ~mem:None ~branch:(Some (true, 0)) ~kind:Kret;
        finished := true
      | (si, sf, f, ret_pc) :: rest ->
        let ri = ints.(Isa.abi_int_ret) and rf = flts.(Isa.abi_flt_ret) in
        Array.blit si 0 ints 0 32;
        Array.blit sf 0 flts 0 32;
        ints.(Isa.abi_int_ret) <- ri;
        flts.(Isa.abi_flt_ret) <- rf;
        stack := rest;
        stats.taken <- stats.taken + 1;
        retire ins ~srcs:[] ~dst:None ~mem:None
          ~branch:(Some (true, Hashtbl.find base_tbl f.Isa.fname + ret_pc))
          ~kind:Kret;
        cur_f := f;
        next := ret_pc));
    if not !finished then pc := !next
  done;
  { ret_int = ints.(Isa.abi_int_ret); ret_flt = flts.(Isa.abi_flt_ret); stats }
