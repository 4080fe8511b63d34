module Ty = Trips_tir.Ty
module Ast = Trips_tir.Ast
module Image = Trips_tir.Image
module Semantics = Trips_tir.Semantics

type token = Val of Ty.value | Nul

type mem_event = {
  ev_inst : int;
  ev_lsid : int;
  ev_is_load : bool;
  ev_addr : int;
  ev_width : Ty.width;
  ev_null : bool;
}

type instance = {
  iblock : Block.t;
  fired : bool array;
  useful : bool array;
  exit_inst : int;
  exit_dest : Isa.exit_dest;
  mem_events : mem_event list;
}

type stats = {
  mutable blocks : int;
  mutable fetched : int;
  mutable executed : int;
  mutable not_executed : int;
  mutable executed_not_used : int;
  mutable useful : int;
  mutable k_arith : int;
  mutable k_memory : int;
  mutable k_control : int;
  mutable k_test : int;
  mutable k_move : int;
  mutable reads_fetched : int;
  mutable writes_committed : int;
  mutable stores_committed : int;
  mutable loads_executed : int;
  mutable opn_et_et : int;
  mutable opn_rt_et : int;
  mutable opn_et_rt : int;
  mutable opn_et_dt : int;
  mutable opn_dt_et : int;
  mutable opn_et_gt : int;
  mutable flops : int;
}

let empty_stats () =
  {
    blocks = 0; fetched = 0; executed = 0; not_executed = 0;
    executed_not_used = 0; useful = 0;
    k_arith = 0; k_memory = 0; k_control = 0; k_test = 0; k_move = 0;
    reads_fetched = 0; writes_committed = 0; stores_committed = 0;
    loads_executed = 0;
    opn_et_et = 0; opn_rt_et = 0; opn_et_rt = 0; opn_et_dt = 0;
    opn_dt_et = 0; opn_et_gt = 0; flops = 0;
  }

type result = {
  ret : Ty.value option;
  stats : stats;
}

exception Stuck of string * string

let abi_ret_reg = 1
let abi_arg_regs = [ 2; 3; 4; 5; 6; 7; 8; 9 ]

let is_flop (op : Isa.opcode) =
  match op with
  | Isa.Bin (Ast.Fadd | Ast.Fsub | Ast.Fmul | Ast.Fdiv) -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Static per-block facts                                              *)
(* ------------------------------------------------------------------ *)

(* Operand-presence bits, one per port; a target's slot number [s] is the
   bit [1 lsl s]. *)
let g_op0 = 1
let g_op1 = 2
let g_pred = 4

(* Facts about a block that the executor needs on every instance but that
   depend only on the static code: computed once per label and [run], on
   the block's first instance.

   Targets are pre-encoded as ints ([To_write w] is [-w - 1], [To_inst
   (i, s)] is [i * 4 + slot]) in one flat array per block so the fire
   loop iterates a slice instead of walking a list of boxed variants.

   Operand-network deliveries are counted statically: a fired
   instruction always delivers to all of its targets, and every read
   delivers on every instance, so the commit folds per-instruction and
   per-block target counts instead of counting each delivery. *)
type xstatic = {
  xs_block : Block.t;
  xs_need : int array;             (* presence bits an inst waits for *)
  xs_pred : int array;             (* 0 unpredicated, 1 on true, 2 on false *)
  xs_zero_ready : int array;       (* insts that wait for nothing *)
  xs_is_load : bool array;
  xs_class : Isa.klass array;      (* Isa.classify per inst *)
  xs_flop : bool array;
  xs_const : token array;
      (* the value a Geni/Genf produces or a Bin's immediate second
         operand, built once; [Nul] elsewhere *)
  xs_inst_targets : int array;     (* To_inst targets delivered on firing *)
  xs_write_targets : int array;    (* To_write targets delivered on firing *)
  xs_root : bool array;            (* a block output: store, branch, write *)
  xs_store_sites : int;            (* static stores in the block *)
  xs_store_lsids : int;            (* bitmask of LSIDs holding a store *)
  xs_sites : int array;            (* static stores per LSID *)
  xs_read_inst : int;              (* read targets that are instructions *)
  xs_read_write : int;             (* read targets that are write slots *)
  xs_toff : int array;             (* inst -> first encoded target *)
  xs_tenc : int array;             (* encoded targets, flattened *)
  xs_roff : int array;             (* read -> first encoded target *)
  xs_renc : int array;             (* encoded read targets, flattened *)
  xs_next : int array;
      (* per branch: block index of its jump target or callee entry;
         [-1] for an unknown block, [-2] for an unknown callee *)
  xs_ret : int array;              (* per call: block index of its return *)
}

let encode_target = function
  | Isa.To_write w -> -w - 1
  | Isa.To_inst (i, Isa.Op0) -> i * 4
  | Isa.To_inst (i, Isa.Op1) -> (i * 4) + 1
  | Isa.To_inst (i, Isa.OpPred) -> (i * 4) + 2

(* Flatten per-source target lists into an offset and an encoding array. *)
let flatten targets =
  let m = Array.length targets in
  let off = Array.make (m + 1) 0 in
  for k = 0 to m - 1 do
    off.(k + 1) <- off.(k) + List.length targets.(k)
  done;
  let enc = Array.make (max 1 off.(m)) 0 in
  for k = 0 to m - 1 do
    List.iteri (fun j t -> enc.(off.(k) + j) <- encode_target t) targets.(k)
  done;
  (off, enc)

let count_writes ts =
  List.length (List.filter (function Isa.To_write _ -> true | _ -> false) ts)

(* [index label] is a block's index or [-1]; [entry f] the index of
   function [f]'s entry block, [-1] if that block is unknown and [-2] if
   the function is. *)
let build_xstatic ~index ~entry (b : Block.t) : xstatic =
  let n = Array.length b.insts in
  let nw = Array.length b.writes in
  (* write slots and LSIDs are tracked in bitmasks *)
  if nw > Isa.max_writes then raise (Stuck (b.label, "too many writes"));
  let sites = Array.make Isa.max_lsids 0 in
  let xs_next = Array.make n (-1) and xs_ret = Array.make n (-1) in
  Array.iteri
    (fun i (ins : Isa.inst) ->
      (match ins.op with
      | Isa.Store (_, l) | Isa.Load (_, _, l) ->
        if l < 0 || l >= Isa.max_lsids then
          raise (Stuck (b.label, Printf.sprintf "I%d LSID %d out of range" i l))
      | _ -> ());
      List.iter
        (function
          | Isa.To_write w when w < 0 || w >= nw ->
            raise (Stuck (b.label, Printf.sprintf "write target W%d out of range" w))
          | Isa.To_inst (j, _) when j < 0 || j >= n ->
            raise (Stuck (b.label, Printf.sprintf "target I%d out of range" j))
          | _ -> ())
        ins.targets;
      match ins.op with
      | Isa.Store (_, l) -> sites.(l) <- sites.(l) + 1
      | Isa.Branch (Isa.Xjump l) -> xs_next.(i) <- index l
      | Isa.Branch (Isa.Xcall (f, retl)) ->
        xs_next.(i) <- entry f;
        xs_ret.(i) <- index retl
      | _ -> ())
    b.insts;
  let store_lsids = ref 0 in
  Array.iteri (fun l c -> if c > 0 then store_lsids := !store_lsids lor (1 lsl l)) sites;
  (* stores and branches deliver nothing when they fire *)
  let delivers (ins : Isa.inst) =
    match ins.op with Isa.Store _ | Isa.Branch _ -> false | _ -> true
  in
  let xs_write_targets =
    Array.map
      (fun (ins : Isa.inst) -> if delivers ins then count_writes ins.targets else 0)
      b.insts
  in
  let xs_inst_targets =
    Array.mapi
      (fun i (ins : Isa.inst) ->
        if delivers ins then List.length ins.targets - xs_write_targets.(i) else 0)
      b.insts
  in
  let xs_need =
    Array.map
      (fun (ins : Isa.inst) ->
        let a = Isa.operand_arity ins in
        (if a >= 1 then g_op0 else 0)
        lor (if a >= 2 then g_op1 else 0)
        lor (match ins.pred with Isa.Unpred -> 0 | _ -> g_pred))
      b.insts
  in
  let zero = ref [] in
  for i = n - 1 downto 0 do
    if xs_need.(i) = 0 then zero := i :: !zero
  done;
  let toff, tenc = flatten (Array.map (fun (ins : Isa.inst) -> ins.targets) b.insts) in
  let rtargets = Array.map (fun (r : Block.read) -> r.rtargets) b.reads in
  let roff, renc = flatten rtargets in
  let read_write = Array.fold_left (fun acc ts -> acc + count_writes ts) 0 rtargets in
  {
    xs_block = b;
    xs_need;
    xs_pred =
      Array.map
        (fun (ins : Isa.inst) ->
          match ins.pred with Isa.Unpred -> 0 | Isa.On_true _ -> 1 | Isa.On_false _ -> 2)
        b.insts;
    xs_zero_ready = Array.of_list !zero;
    xs_is_load =
      Array.map
        (fun (ins : Isa.inst) -> match ins.op with Isa.Load _ -> true | _ -> false)
        b.insts;
    xs_class = Array.map (fun (ins : Isa.inst) -> Isa.classify ins.op) b.insts;
    xs_flop = Array.map (fun (ins : Isa.inst) -> is_flop ins.op) b.insts;
    xs_const =
      Array.map
        (fun (ins : Isa.inst) ->
          match (ins.op, ins.imm) with
          | Isa.Geni v, _ | Isa.Bin _, Some v -> Val (Ty.Vi v)
          | Isa.Genf v, _ -> Val (Ty.Vf v)
          | _ -> Nul)
        b.insts;
    xs_inst_targets;
    xs_write_targets;
    xs_root =
      Array.mapi
        (fun i (ins : Isa.inst) ->
          xs_write_targets.(i) > 0 || not (delivers ins))
        b.insts;
    xs_store_sites = Array.fold_left ( + ) 0 sites;
    xs_store_lsids = !store_lsids;
    xs_sites = sites;
    xs_read_inst = roff.(Array.length b.reads) - read_write;
    xs_read_write = read_write;
    xs_toff = toff;
    xs_tenc = tenc;
    xs_roff = roff;
    xs_renc = renc;
    xs_next;
    xs_ret;
  }

(* ------------------------------------------------------------------ *)
(* Single block execution                                              *)
(* ------------------------------------------------------------------ *)

type pending_store = {
  ps_inst : int;
  ps_lsid : int;
  ps_width : Ty.width;
  ps_addr : int;           (* meaningless when nullified *)
  ps_data : token;
}

(* Reusable per-instance state, grown to the largest block executed so
   far so the hot loop allocates almost nothing per instance.  Operand
   slots are struct-of-arrays with a presence bitmask ([g_*] bits), and
   only [got] is reset per instance: a token or producer slot is read
   only when its presence bit is set. *)
type xscratch = {
  mutable got : int array;             (* presence bitmask per inst *)
  mutable tok0 : token array;
  mutable tok1 : token array;
  mutable tokp : token array;
  mutable src0 : int array;            (* producer index, -1 = read slot *)
  mutable src1 : int array;
  mutable srcp : int array;
  mutable ready : int array;           (* insts whose operands are all in *)
  mutable nready : int;
  mutable order : int array;           (* insts in firing order *)
  mutable nfired : int;
  mutable fired : bool array;          (* of the current instance *)
  mutable pending_loads : int list;    (* loads waiting on lower stores *)
  mutable stores : pending_store list; (* fired stores, newest first *)
  mutable nstores : int;
  store_cnt : int array;               (* fired stores per LSID *)
  mutable unstored : int;              (* LSIDs with a store still to fire *)
  mutable exit_i : int;                (* branch that fired, -1 = none *)
  wval : Ty.value array;               (* value per write slot *)
  mutable wmask : int;                 (* write slots that received one *)
  mutable wdup : bool;                 (* a write slot received two *)
}

let make_xscratch () =
  let n = Isa.max_insts in
  {
    got = Array.make n 0;
    tok0 = Array.make n Nul;
    tok1 = Array.make n Nul;
    tokp = Array.make n Nul;
    src0 = Array.make n (-1);
    src1 = Array.make n (-1);
    srcp = Array.make n (-1);
    ready = Array.make n 0;
    nready = 0;
    order = Array.make n 0;
    nfired = 0;
    fired = [||];
    pending_loads = [];
    stores = [];
    nstores = 0;
    store_cnt = Array.make Isa.max_lsids 0;
    unstored = 0;
    exit_i = -1;
    wval = Array.make Isa.max_writes (Ty.Vi 0L);
    wmask = 0;
    wdup = false;
  }

let xscratch_grow xc n =
  if n > Array.length xc.got then begin
    xc.got <- Array.make n 0;
    xc.tok0 <- Array.make n Nul;
    xc.tok1 <- Array.make n Nul;
    xc.tokp <- Array.make n Nul;
    xc.src0 <- Array.make n (-1);
    xc.src1 <- Array.make n (-1);
    xc.srcp <- Array.make n (-1);
    xc.ready <- Array.make n 0;
    xc.order <- Array.make n 0
  end

(* Every instruction is pushed once, when its last needed operand
   arrives, and a deferred load is either here or in [pending_loads]:
   [ready] never holds more than the block's instructions. *)
let push_ready xc i =
  xc.ready.(xc.nready) <- i;
  xc.nready <- xc.nready + 1

(* effective address: base operand plus the immediate displacement *)
let addr_of label tok (ins : Isa.inst) =
  match tok with
  | Val v ->
    Int64.to_int (Ty.as_int v) + (match ins.imm with Some d -> Int64.to_int d | None -> 0)
  | Nul -> raise (Stuck (label, "null token in arithmetic"))

(* [enc] is a pre-encoded target (see {!xstatic}); [src] the producing
   instruction, -1 for a read slot. *)
let deliver xc xs src tok enc =
  if enc < 0 then begin
    let w = -enc - 1 in
    match tok with
    | Nul -> raise (Stuck (xs.xs_block.label, "null token delivered to a write slot"))
    | Val v ->
      let bit = 1 lsl w in
      if xc.wmask land bit <> 0 then xc.wdup <- true
      else begin
        xc.wmask <- xc.wmask lor bit;
        xc.wval.(w) <- v
      end
  end
  else begin
    let i = enc lsr 2 and s = enc land 3 in
    let g = xc.got.(i) in
    let bit = 1 lsl s in
    if g land bit <> 0 then
      raise
        (Stuck
           ( xs.xs_block.label,
             Printf.sprintf "I%d.%s double delivery" i
               (if s = 0 then "op0" else if s = 1 then "op1" else "pred") ));
    let g' = g lor bit in
    xc.got.(i) <- g';
    if s = 0 then begin
      xc.tok0.(i) <- tok;
      xc.src0.(i) <- src
    end
    else if s = 1 then begin
      xc.tok1.(i) <- tok;
      xc.src1.(i) <- src
    end
    else begin
      (match tok with
      | Nul when xs.xs_pred.(i) <> 0 -> raise (Stuck (xs.xs_block.label, "null predicate"))
      | _ -> ());
      xc.tokp.(i) <- tok;
      xc.srcp.(i) <- src
    end;
    let need = xs.xs_need.(i) in
    if g' land need = need && g land need <> need then push_ready xc i
  end

(* deliver to every target of inst [i], in program target order *)
let deliver_all xc xs i tok =
  for k = xs.xs_toff.(i) to xs.xs_toff.(i + 1) - 1 do
    deliver xc xs i tok (Array.unsafe_get xs.xs_tenc k)
  done

(* forward from in-flight stores: build each byte from the youngest
   lower-LSID store covering it, falling back to memory.  The common
   case — no in-flight lower-LSID store overlaps the loaded range — is
   detected with one scan and served by a single full-width read. *)
let forward_raw stores image width lsid addr =
  let bytes = Ty.bytes_of_width width in
  let live ps =
    (match ps.ps_data with Nul -> false | Val _ -> true) && ps.ps_lsid < lsid
  in
  if
    not
      (List.exists
         (fun ps ->
           live ps && ps.ps_addr < addr + bytes
           && addr < ps.ps_addr + Ty.bytes_of_width ps.ps_width)
         stores)
  then Image.load_u image width addr
  else begin
    let byte k =
      let a = addr + k in
      let best = ref None in
      List.iter
        (fun ps ->
          if live ps && a >= ps.ps_addr
             && a < ps.ps_addr + Ty.bytes_of_width ps.ps_width
          then
            match !best with
            | Some prev when prev.ps_lsid >= ps.ps_lsid -> ()
            | _ -> best := Some ps)
        stores;
      match !best with
      | Some { ps_data = Val data; ps_addr; _ } ->
        let raw = match data with Ty.Vi i -> i | Ty.Vf f -> Int64.bits_of_float f in
        Int64.to_int (Int64.logand (Int64.shift_right_logical raw (8 * (a - ps_addr))) 0xFFL)
      | _ -> Int64.to_int (Image.load_u image Ty.W1 a)
    in
    let raw = ref 0L in
    for k = bytes - 1 downto 0 do
      raw := Int64.logor (Int64.shift_left !raw 8) (Int64.of_int (byte k))
    done;
    !raw
  end

let load_value stores image ty width lsid addr =
  let raw =
    if List.is_empty stores then Image.load_u image width addr
    else forward_raw stores image width lsid addr
  in
  match (ty : Ty.t) with
  | Ty.I64 -> Ty.Vi (Semantics.zext width raw)
  | Ty.F64 -> Ty.Vf (Int64.float_of_bits raw)

let null_operand label = raise (Stuck (label, "null operand in ALU op"))

(* Fire instruction [i], whose needed operands have all arrived.  A
   squashed instruction (predicate mismatch) does nothing; a load whose
   lower-LSID stores have not all fired waits in [pending_loads]. *)
let fire ~fuel xc xs image i =
  let b = xs.xs_block in
  let ins = Array.unsafe_get b.insts i in
  let p = xs.xs_pred.(i) in
  let go =
    p = 0
    ||
    match xc.tokp.(i) with
    | Val v -> Ty.truthy v = (p = 1)
    | Nul -> raise (Stuck (b.label, "null predicate"))
  in
  if go then
    match ins.op with
    | Isa.Load _ when xc.fired.(i) -> ()
    | Isa.Load (_, _, lsid) when xc.unstored land ((1 lsl lsid) - 1) <> 0 ->
      xc.pending_loads <- i :: xc.pending_loads
    | op ->
      xc.fired.(i) <- true;
      xc.order.(xc.nfired) <- i;
      xc.nfired <- xc.nfired + 1;
      decr fuel;
      if !fuel <= 0 then raise (Stuck (b.label, "out of fuel"));
      (match op with
      | Isa.Bin bop ->
        let a = match xc.tok0.(i) with Val v -> v | Nul -> null_operand b.label in
        let c =
          match xs.xs_const.(i) with
          | Val imm -> imm
          | Nul -> (match xc.tok1.(i) with Val v -> v | Nul -> null_operand b.label)
        in
        deliver_all xc xs i (Val (Semantics.binop bop a c))
      | Isa.Un uop ->
        (match xc.tok0.(i) with
        | Val v -> deliver_all xc xs i (Val (Semantics.unop uop v))
        | Nul -> null_operand b.label)
      | Isa.Geni _ | Isa.Genf _ -> deliver_all xc xs i xs.xs_const.(i)
      | Isa.Mov -> deliver_all xc xs i xc.tok0.(i)
      | Isa.Null -> deliver_all xc xs i Nul
      | Isa.Load (ty, w, lsid) ->
        let addr = addr_of b.label xc.tok0.(i) ins in
        deliver_all xc xs i (Val (load_value xc.stores image ty w lsid addr))
      | Isa.Store (w, lsid) ->
        (* the immediate on a store is an address displacement, not an
           operand substitute: data always arrives on op1 *)
        let a = xc.tok0.(i) and d = xc.tok1.(i) in
        let nullified =
          match (a, d) with Val _, Val _ -> false | _ -> true
        in
        let addr = if nullified then 0 else addr_of b.label a ins in
        xc.stores <-
          { ps_inst = i; ps_lsid = lsid; ps_width = w; ps_addr = addr;
            ps_data = (if nullified then Nul else d) }
          :: xc.stores;
        xc.nstores <- xc.nstores + 1;
        let c = xc.store_cnt.(lsid) + 1 in
        xc.store_cnt.(lsid) <- c;
        if c = xs.xs_sites.(lsid) then
          xc.unstored <- xc.unstored land lnot (1 lsl lsid);
        (* a completed store may unblock deferred loads *)
        List.iter (push_ready xc) xc.pending_loads;
        xc.pending_loads <- []
      | Isa.Branch _ ->
        if xc.exit_i >= 0 then raise (Stuck (b.label, "two branches fired"));
        xc.exit_i <- i)

(* [j], a producer of a useful instruction, is useful; -1 is a read slot *)
let mark useful j = if j >= 0 then Array.unsafe_set useful j true

(* Execute one block instance against register file and memory, commit
   its stores and register writes, and fold its statistics. *)
let exec_block ~stats ~fuel ~(xc : xscratch) (xs : xstatic)
    (regs : Ty.value array) (image : Image.t) : instance =
  let b = xs.xs_block in
  let n = Array.length b.insts in
  xscratch_grow xc n;
  let got = xc.got in
  Array.fill got 0 n 0;
  if xs.xs_store_sites > 0 then Array.fill xc.store_cnt 0 Isa.max_lsids 0;
  let fired = Array.make n false in
  xc.fired <- fired;
  xc.nready <- 0;
  xc.nfired <- 0;
  xc.pending_loads <- [];
  xc.stores <- [];
  xc.nstores <- 0;
  xc.unstored <- xs.xs_store_lsids;
  xc.exit_i <- -1;
  xc.wmask <- 0;
  xc.wdup <- false;
  (* inject register reads *)
  for r = 0 to Array.length b.reads - 1 do
    let tok = Val regs.(b.reads.(r).Block.rreg) in
    for k = xs.xs_roff.(r) to xs.xs_roff.(r + 1) - 1 do
      deliver xc xs (-1) tok (Array.unsafe_get xs.xs_renc k)
    done
  done;
  (* zero-operand instructions are ready immediately *)
  Array.iter (push_ready xc) xs.xs_zero_ready;
  (* dataflow loop *)
  while xc.nready > 0 do
    xc.nready <- xc.nready - 1;
    fire ~fuel xc xs image (Array.unsafe_get xc.ready xc.nready)
  done;
  (* only a store can unblock a load, and none is left to fire *)
  if not (List.is_empty xc.pending_loads) then
    raise (Stuck (b.label, "loads deadlocked on incomplete stores"));
  (* completeness checks *)
  let exit_i = xc.exit_i in
  if exit_i < 0 then raise (Stuck (b.label, "no branch fired"));
  let exit_dest =
    match b.insts.(exit_i).op with Isa.Branch d -> d | _ -> assert false
  in
  if xc.nstores <> xs.xs_store_sites then
    raise (Stuck (b.label, Printf.sprintf "only %d/%d stores completed" xc.nstores xs.xs_store_sites));
  let declared = Array.length b.writes in
  if xc.wmask <> (1 lsl declared) - 1 then begin
    let rec popcount m = if m = 0 then 0 else 1 + popcount (m land (m - 1)) in
    raise
      (Stuck
         ( b.label,
           Printf.sprintf "only %d/%d writes completed" (popcount xc.wmask) declared ))
  end;
  if xc.wdup then raise (Stuck (b.label, "a write slot received two values"));
  (* commit stores in LSID order, then register writes *)
  let stores = xc.stores in
  List.iter
    (fun ps ->
      match ps.ps_data with
      | Nul -> ()
      | Val v -> Image.store image ps.ps_width ps.ps_addr v)
    (List.stable_sort (fun a b2 -> Int.compare a.ps_lsid b2.ps_lsid) stores);
  for w = 0 to declared - 1 do
    regs.(b.writes.(w).wreg) <- xc.wval.(w)
  done;
  (* usefulness: reverse reachability from the outputs (the branch,
     stores, write producers) over the dynamic operand edges.  A producer
     fires before all of its consumers, so one pass in reverse firing
     order settles every instruction before its producers are visited;
     the same pass folds the per-instruction statistics. *)
  let useful = Array.make n false in
  let executed = xc.nfired in
  let not_used = ref 0 and useful_n = ref 0 in
  let arith = ref 0 and memory = ref 0 and control = ref 0 and test = ref 0 in
  let move = ref 0 and flops = ref 0 and loads = ref 0 in
  let et_et = ref 0 and dt_et = ref 0 and et_rt = ref 0 in
  let mem_events = ref [] in
  for k = executed - 1 downto 0 do
    let i = Array.unsafe_get xc.order k in
    let cls = Array.unsafe_get xs.xs_class i in
    if Array.unsafe_get useful i || Array.unsafe_get xs.xs_root i then begin
      useful.(i) <- true;
      if cls <> Isa.Kmove then incr useful_n;
      let g = got.(i) in
      if g land g_op0 <> 0 then mark useful xc.src0.(i);
      if g land g_op1 <> 0 then mark useful xc.src1.(i);
      if g land g_pred <> 0 then mark useful xc.srcp.(i)
    end
    else incr not_used;
    (match cls with
    | Isa.Karith -> incr arith
    | Isa.Kmemory -> incr memory
    | Isa.Kcontrol -> incr control
    | Isa.Ktest -> incr test
    | Isa.Kmove -> incr move);
    if Array.unsafe_get xs.xs_flop i then incr flops;
    et_rt := !et_rt + Array.unsafe_get xs.xs_write_targets i;
    if Array.unsafe_get xs.xs_is_load i then begin
      dt_et := !dt_et + Array.unsafe_get xs.xs_inst_targets i;
      incr loads;
      let ins = b.insts.(i) in
      match ins.op with
      | Isa.Load (_, w, lsid) ->
        mem_events :=
          { ev_inst = i; ev_lsid = lsid; ev_is_load = true;
            ev_addr = addr_of b.label xc.tok0.(i) ins; ev_width = w;
            ev_null = false }
          :: !mem_events
      | _ -> ()
    end
    else et_et := !et_et + Array.unsafe_get xs.xs_inst_targets i
  done;
  let committed = ref 0 in
  List.iter
    (fun ps ->
      let nul = match ps.ps_data with Nul -> true | Val _ -> false in
      if not nul then incr committed;
      mem_events :=
        { ev_inst = ps.ps_inst; ev_lsid = ps.ps_lsid; ev_is_load = false;
          ev_addr = ps.ps_addr; ev_width = ps.ps_width; ev_null = nul }
        :: !mem_events)
    stores;
  stats.blocks <- stats.blocks + 1;
  stats.fetched <- stats.fetched + n;
  stats.executed <- stats.executed + executed;
  stats.not_executed <- stats.not_executed + (n - executed);
  stats.executed_not_used <- stats.executed_not_used + !not_used;
  stats.useful <- stats.useful + !useful_n;
  stats.k_arith <- stats.k_arith + !arith;
  stats.k_memory <- stats.k_memory + !memory;
  stats.k_control <- stats.k_control + !control;
  stats.k_test <- stats.k_test + !test;
  stats.k_move <- stats.k_move + !move;
  stats.reads_fetched <- stats.reads_fetched + Array.length b.reads;
  stats.writes_committed <- stats.writes_committed + declared;
  stats.stores_committed <- stats.stores_committed + !committed;
  stats.loads_executed <- stats.loads_executed + !loads;
  stats.opn_et_et <- stats.opn_et_et + !et_et;
  stats.opn_rt_et <- stats.opn_rt_et + xs.xs_read_inst;
  stats.opn_et_rt <- stats.opn_et_rt + !et_rt + xs.xs_read_write;
  stats.opn_et_dt <- stats.opn_et_dt + !loads + xc.nstores;
  stats.opn_dt_et <- stats.opn_dt_et + !dt_et;
  stats.opn_et_gt <- stats.opn_et_gt + 1;
  stats.flops <- stats.flops + !flops;
  let mem_events =
    List.stable_sort (fun a b2 -> Int.compare a.ev_lsid b2.ev_lsid) !mem_events
  in
  { iblock = b; fired; useful; exit_inst = exit_i; exit_dest; mem_events }

(* ------------------------------------------------------------------ *)
(* Program execution                                                   *)
(* ------------------------------------------------------------------ *)

let run ?(fuel = 400_000_000) ?on_instance (p : Block.program)
    (image : Image.t) ~entry ~args =
  let stats = empty_stats () in
  let fuel = ref fuel in
  let regs = Array.make Isa.num_regs (Ty.Vi 0L) in
  List.iteri
    (fun i v ->
      match List.nth_opt abi_arg_regs i with
      | Some r -> regs.(r) <- v
      | None -> invalid_arg "Exec.run: too many arguments")
    args;
  (* blocks are dispatched by index: labels and callees are resolved
     once, when a block's static facts are built *)
  let blocks = Array.of_list (List.concat_map (fun (f : Block.func) -> f.blocks) p.funcs) in
  let labels = Hashtbl.create 256 in
  Array.iteri (fun k (b : Block.t) -> Hashtbl.replace labels b.label k) blocks;
  let index l = Option.value ~default:(-1) (Hashtbl.find_opt labels l) in
  let find_func f = List.find_opt (fun (g : Block.func) -> g.fname = f) p.funcs in
  let entry_of f = match find_func f with Some g -> index g.entry | None -> -2 in
  let statics = Array.make (Array.length blocks) None in
  let xc = make_xscratch () in
  (* [k] is the next block's index, [label] its name for errors *)
  let static k label =
    if k < 0 then raise (Stuck (label, "unknown block"));
    match statics.(k) with
    | Some xs -> xs
    | None ->
      let xs = build_xstatic ~index ~entry:entry_of blocks.(k) in
      statics.(k) <- Some xs;
      xs
  in
  let entry_f =
    match find_func entry with
    | Some f -> f
    | None -> raise (Stuck (entry, "unknown function " ^ entry))
  in
  (* call stack: saved register file + return block *)
  let stack : (Ty.value array * int * string) list ref = ref [] in
  let current = ref (static (index entry_f.entry) entry_f.entry) in
  let finished = ref None in
  while Option.is_none !finished do
    let xs = !current in
    let instance = exec_block ~stats ~fuel ~xc xs regs image in
    (match on_instance with Some f -> f instance | None -> ());
    let next = xs.xs_next.(instance.exit_inst) in
    match instance.exit_dest with
    | Isa.Xjump l -> current := static next l
    | Isa.Xcall (callee, retl) ->
      if next = -2 then
        raise (Stuck (xs.xs_block.label, "unknown function " ^ callee));
      if next = -1 then
        raise (Stuck ((Block.find_func p callee).entry, "unknown block"));
      stack := (Array.copy regs, xs.xs_ret.(instance.exit_inst), retl) :: !stack;
      current := static next callee
    | Isa.Xret -> (
      match !stack with
      | [] -> finished := Some regs.(abi_ret_reg)
      | (saved, ret, retl) :: rest ->
        let ret_v = regs.(abi_ret_reg) in
        Array.blit saved 0 regs 0 (Array.length regs);
        regs.(abi_ret_reg) <- ret_v;
        stack := rest;
        current := static ret retl)
  done;
  { ret = !finished; stats }
