module Ty = Trips_tir.Ty
module Ast = Trips_tir.Ast
module Image = Trips_tir.Image
module Semantics = Trips_tir.Semantics

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
  iindex : int;
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
(* Value lanes                                                         *)
(* ------------------------------------------------------------------ *)

(* A value is kept unboxed in two parts, in {!Semantics}' lane layout:
   its 64 bits in a [Bytes] lane (eight bytes per slot: an integer as
   is, a float as its IEEE bits) and a tag in an [int array].  An
   instance has one lane per instruction, written once when the
   instruction fires (a store's lane holds its data), then one per read
   slot; the register file has one per register.  Tags are ints, so
   writing one pays no write barrier.  The helpers below are inlined so
   no [int64] leaves a function boxed. *)
let t_int = Semantics.tag_int
let t_float = Semantics.tag_float
let t_null = Semantics.tag_null

type lanes = { mutable bits : Bytes.t; mutable tags : int array }

let make_lanes n = { bits = Bytes.make (n * 8) '\000'; tags = Array.make n t_int }

let blit_lanes src dst =
  Bytes.blit src.bits 0 dst.bits 0 (Bytes.length src.bits);
  Array.blit src.tags 0 dst.tags 0 (Array.length src.tags)

let[@inline] get_bits l k = Bytes.get_int64_le l.bits (k lsl 3)

let[@inline] set_lane l k tag x =
  Bytes.set_int64_le l.bits (k lsl 3) x;
  l.tags.(k) <- tag

let[@inline] copy_lane src j dst k = set_lane dst k src.tags.(j) (get_bits src j)

(* A lane as a boxed value, for [run]'s result; a null is an error. *)
let value label l k =
  let tag = l.tags.(k) in
  if tag = t_int then Ty.Vi (get_bits l k)
  else if tag = t_float then Ty.Vf (Int64.float_of_bits (get_bits l k))
  else raise (Stuck (label, "null operand in ALU op"))

let set_value l k = function
  | Ty.Vi x -> set_lane l k t_int x
  | Ty.Vf f -> set_lane l k t_float (Int64.bits_of_float f)

(* [Ty.truthy] of a lane *)
let truthy label l k =
  let tag = l.tags.(k) in
  if tag = t_int then not (Int64.equal (get_bits l k) 0L)
  else if tag = t_float then Int64.float_of_bits (get_bits l k) <> 0.
  else raise (Stuck (label, "null predicate"))

(* ------------------------------------------------------------------ *)
(* Recorded schedules                                                  *)
(* ------------------------------------------------------------------ *)

(* An instance's shape is the sequence of outcomes of the predicate
   tests it makes.  The general engine's pop order is a function of the
   outcomes seen so far: every other choice it makes depends on which
   instructions have fired, never on a value, and a token is null only
   if a [Null] produced it.  So which instructions fire, in what order
   and from which producers is a function of the shape, and so is all
   of this.  Instances of one shape share [sh_fired] and [sh_useful]. *)
type shape = {
  sh_fired : bool array;
  sh_useful : bool array;
  sh_stats : int array;          (* the 22 [stats] increments, in order *)
  sh_exit : int;
  sh_dest : Isa.exit_dest;
  sh_wsrc : int array;           (* lane feeding each write slot *)
  sh_commit : int array;         (* non-null stores in commit order *)
  sh_events : mem_event array;   (* in final order, [ev_addr] unset *)
}

(* A block's recorded schedules form a trie.  A node holds the fires
   that follow unconditionally from the pops so far ([steps]: three ints
   each, the instruction and the lanes feeding its op0 and op1), then
   either the shape they complete or the next predicate test, whose
   outcome picks the child. *)
type node = { steps : int array; next : next }

and next =
  | Leaf of shape
  | Test of {
      inst : int;                (* the predicated instruction *)
      lane : int;                (* the lane holding its predicate *)
      mutable go : node option;      (* the predicate matched *)
      mutable squash : node option;
    }

(* Recorded shapes per block, which bounds what a block with many
   independent predicates can hold; further shapes run the general
   engine unrecorded.  No registry workload comes near it. *)
let max_traces = 128

(* ------------------------------------------------------------------ *)
(* Static per-block facts                                              *)
(* ------------------------------------------------------------------ *)

(* What [compute] does for an instruction, decoded once from its opcode
   and immediate.  Constant constructors, so a block's codes are a plain
   int array and [compute] dispatches through one jump table. *)
type op =
  | Op_bin                      (* binop of op0 and op1 *)
  | Op_bin_imm                  (* binop of op0 and the immediate *)
  | Op_un
  | Op_gen_int                  (* the immediate, as an integer *)
  | Op_gen_float                (* the immediate, as IEEE bits *)
  | Op_mov
  | Op_null
  | Op_load_int
  | Op_load_float
  | Op_store
  | Op_branch

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
  xs_index : int;                  (* the block's index in [blocks] *)
  xs_n : int;                      (* instructions; read slot r is lane n + r *)
  xs_need : int array;             (* presence bits an inst waits for *)
  xs_pred : int array;             (* 0 unpredicated, 1 on true, 2 on false *)
  xs_zero_ready : int array;       (* insts that wait for nothing *)
  xs_is_load : bool array;
  xs_lsid : int array;             (* per memory inst *)
  xs_width : Ty.width array;       (* per memory inst *)
  xs_op : op array;                (* decoded per inst *)
  xs_binop : Ast.binop array;      (* per [Op_bin]/[Op_bin_imm] inst *)
  xs_unop : Ast.unop array;        (* per [Op_un] inst *)
  xs_imm : Bytes.t;
      (* eight bytes per inst: a [Bin]'s immediate operand, the constant
         a [Geni]/[Genf] generates, or a memory inst's displacement *)
  xs_class : Isa.klass array;      (* Isa.classify per inst *)
  xs_flop : bool array;
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
  mutable xs_trie : node option;   (* the recorded schedules *)
  mutable xs_traces : int;         (* shapes in [xs_trie] *)
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
let build_xstatic ~index ~entry k (b : Block.t) : xstatic =
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
  let xs_imm = Bytes.make (8 * max 1 n) '\000' in
  let decode i (ins : Isa.inst) =
    let imm x = Bytes.set_int64_le xs_imm (8 * i) x in
    match (ins.op, ins.imm) with
    | Isa.Bin _, Some x -> imm x; Op_bin_imm
    | Isa.Bin _, None -> Op_bin
    | Isa.Un _, _ -> Op_un
    | Isa.Geni x, _ -> imm x; Op_gen_int
    | Isa.Genf f, _ -> imm (Int64.bits_of_float f); Op_gen_float
    | Isa.Mov, _ -> Op_mov
    | Isa.Null, _ -> Op_null
    | Isa.Load (ty, _, _), d ->
      imm (Option.value ~default:0L d);
      if ty = Ty.I64 then Op_load_int else Op_load_float
    | Isa.Store _, d -> imm (Option.value ~default:0L d); Op_store
    | Isa.Branch _, _ -> Op_branch
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
  let mem f d =
    Array.map
      (fun (ins : Isa.inst) ->
        match ins.op with
        | Isa.Load (_, w, l) | Isa.Store (w, l) -> f w l
        | _ -> d)
      b.insts
  in
  {
    xs_block = b;
    xs_index = k;
    xs_n = n;
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
    xs_lsid = mem (fun _ l -> l) 0;
    xs_width = mem (fun w _ -> w) Ty.W8;
    xs_op = Array.mapi decode b.insts;
    xs_binop =
      Array.map
        (fun (ins : Isa.inst) -> match ins.op with Isa.Bin o -> o | _ -> Ast.Add)
        b.insts;
    xs_unop =
      Array.map
        (fun (ins : Isa.inst) -> match ins.op with Isa.Un o -> o | _ -> Ast.Neg)
        b.insts;
    xs_imm;
    xs_class = Array.map (fun (ins : Isa.inst) -> Isa.classify ins.op) b.insts;
    xs_flop = Array.map (fun (ins : Isa.inst) -> is_flop ins.op) b.insts;
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
    xs_trie = None;
    xs_traces = 0;
  }

(* ------------------------------------------------------------------ *)
(* Per-instance scratch                                                *)
(* ------------------------------------------------------------------ *)

(* Reusable per-instance state, grown to the largest block executed so
   far so the hot loop allocates almost nothing per instance.  Operand
   slots are struct-of-arrays with a presence bitmask ([g_*] bits), and
   only [got] is reset per instance: a producer slot is read only when
   its presence bit is set.  The general engine uses every field; replay
   only the lanes, [addr] and the store buffer. *)
type xscratch = {
  lane : lanes;                        (* per inst, then per read slot *)
  mutable addr : int array;            (* effective address per memory inst *)
  mutable sbuf : int array;            (* fired stores, oldest first *)
  mutable nsb : int;
  mutable got : int array;             (* presence bitmask per inst *)
  mutable src0 : int array;            (* producer: inst, or -r - 1 for read r *)
  mutable src1 : int array;
  mutable srcp : int array;
  mutable ready : int array;           (* insts whose operands are all in *)
  mutable nready : int;
  mutable order : int array;           (* insts in firing order *)
  mutable nfired : int;
  mutable fired : bool array;          (* of the current instance *)
  mutable pending_loads : int list;    (* loads waiting on lower stores *)
  store_cnt : int array;               (* fired stores per LSID *)
  mutable unstored : int;              (* LSIDs with a store still to fire *)
  mutable exit_i : int;                (* branch that fired, -1 = none *)
  wsrc : int array;                    (* lane feeding each write slot *)
  mutable wmask : int;                 (* write slots that received one *)
  mutable wdup : bool;                 (* a write slot received two *)
  mutable log : int array;
      (* the effectful pops, four ints each: [0; inst; op0 lane; op1
         lane] for a fire, [1; inst; predicate lane; 1 if it passed]
         for a predicate test *)
  mutable nlog : int;
}

let make_xscratch () =
  let n = Isa.max_insts in
  {
    lane = make_lanes (n + Isa.max_reads);
    addr = Array.make n 0;
    sbuf = Array.make n 0;
    nsb = 0;
    got = Array.make n 0;
    src0 = Array.make n 0;
    src1 = Array.make n 0;
    srcp = Array.make n 0;
    ready = Array.make n 0;
    nready = 0;
    order = Array.make n 0;
    nfired = 0;
    fired = [||];
    pending_loads = [];
    store_cnt = Array.make Isa.max_lsids 0;
    unstored = 0;
    exit_i = -1;
    wsrc = Array.make Isa.max_writes 0;
    wmask = 0;
    wdup = false;
    log = Array.make (4 * n) 0;
    nlog = 0;
  }

let xscratch_grow xc xs =
  let n = xs.xs_n in
  let nl = n + Array.length xs.xs_block.reads in
  if nl > Array.length xc.lane.tags then begin
    xc.lane.bits <- Bytes.make (nl * 8) '\000';
    xc.lane.tags <- Array.make nl t_int
  end;
  if n > Array.length xc.got then begin
    xc.addr <- Array.make n 0;
    xc.sbuf <- Array.make n 0;
    xc.got <- Array.make n 0;
    xc.src0 <- Array.make n 0;
    xc.src1 <- Array.make n 0;
    xc.srcp <- Array.make n 0;
    xc.ready <- Array.make n 0;
    xc.order <- Array.make n 0
  end

(* the lane of producer [p]: an instruction, or [-r - 1] for read [r] *)
let lane_of xs p = if p >= 0 then p else xs.xs_n - 1 - p

(* ------------------------------------------------------------------ *)
(* The semantics of one fired instruction                              *)
(* ------------------------------------------------------------------ *)

(* effective address of memory inst [i]: its base operand in lane [k]
   plus its displacement; a float base fails as [Ty.as_int] fails *)
let[@inline] address xs l k i =
  let tag = l.tags.(k) in
  let disp = Int64.to_int (Bytes.get_int64_le xs.xs_imm (i lsl 3)) in
  if tag = t_int then Int64.to_int (get_bits l k) + disp
  else if tag = t_float then
    Int64.to_int (Ty.as_int (Ty.Vf (Int64.float_of_bits (get_bits l k)))) + disp
  else raise (Stuck (xs.xs_block.label, "null token in arithmetic"))

(* Load into lane [i] from in-flight stores: build each byte from the
   youngest lower-LSID store covering it, falling back to memory.  The
   common case — no in-flight lower-LSID store overlaps the loaded range
   — is detected with one scan and served by a single full-width read.
   The buffer is scanned newest first, so of two stores with one LSID
   the newer wins. *)
let forward xc xs image width lsid addr i =
  let bytes = Ty.bytes_of_width width in
  let live j = xc.lane.tags.(j) <> t_null && xs.xs_lsid.(j) < lsid in
  let covers j lo hi =
    xc.addr.(j) < hi && lo < xc.addr.(j) + Ty.bytes_of_width xs.xs_width.(j)
  in
  let overlap = ref false in
  for k = 0 to xc.nsb - 1 do
    let j = xc.sbuf.(k) in
    if live j && covers j addr (addr + bytes) then overlap := true
  done;
  if not !overlap then Image.load_lane image width addr xc.lane.bits i
  else begin
    let byte a =
      let best = ref (-1) in
      for k = xc.nsb - 1 downto 0 do
        let j = xc.sbuf.(k) in
        if live j && covers j a (a + 1)
           && (!best < 0 || xs.xs_lsid.(!best) < xs.xs_lsid.(j))
        then best := j
      done;
      if !best < 0 then Int64.to_int (Image.load_u image Ty.W1 a)
      else
        Int64.to_int
          (Int64.logand
             (Int64.shift_right_logical (get_bits xc.lane !best)
                (8 * (a - xc.addr.(!best))))
             0xFFL)
    in
    let raw = ref 0L in
    for k = bytes - 1 downto 0 do
      raw := Int64.logor (Int64.shift_left !raw 8) (Int64.of_int (byte (addr + k)))
    done;
    Bytes.set_int64_le xc.lane.bits (i lsl 3) !raw
  end

let[@inline] operand xs l k =
  if l.tags.(k) = t_null then raise (Stuck (xs.xs_block.label, "null operand in ALU op"))

let[@inline] load xc xs image i l0 =
  let a = address xs xc.lane l0 i in
  xc.addr.(i) <- a;
  let w = Array.unsafe_get xs.xs_width i in
  if xc.nsb = 0 then Image.load_lane image w a xc.lane.bits i
  else forward xc xs image w (Array.unsafe_get xs.xs_lsid i) a i

(* Fire instruction [i] from the lanes [l0] and [l1] of the producers on
   its op0 and op1 ports (ignored where it has no such operand): write
   its result lane, or buffer it as a store.  Both engines call this, so
   it is the one definition of what an instruction does; delivery,
   ordering and completion are the engines' own.  What each operator
   computes is {!Semantics}' alone. *)
let compute xc xs image i l0 l1 =
  let lane = xc.lane in
  match Array.unsafe_get xs.xs_op i with
  | Op_bin ->
    operand xs lane l0;
    operand xs lane l1;
    Semantics.binop_lanes (Array.unsafe_get xs.xs_binop i) lane.bits lane.tags i l0 l1
  | Op_bin_imm ->
    operand xs lane l0;
    (* the immediate goes through the result's own slot *)
    set_lane lane i t_int (Bytes.get_int64_le xs.xs_imm (i lsl 3));
    Semantics.binop_lanes (Array.unsafe_get xs.xs_binop i) lane.bits lane.tags i l0 i
  | Op_un ->
    operand xs lane l0;
    Semantics.unop_lanes (Array.unsafe_get xs.xs_unop i) lane.bits lane.tags i l0
  | Op_gen_int -> set_lane lane i t_int (Bytes.get_int64_le xs.xs_imm (i lsl 3))
  | Op_gen_float -> set_lane lane i t_float (Bytes.get_int64_le xs.xs_imm (i lsl 3))
  | Op_mov -> copy_lane lane l0 lane i
  | Op_null -> lane.tags.(i) <- t_null
  | Op_load_int ->
    load xc xs image i l0;
    lane.tags.(i) <- t_int
  | Op_load_float ->
    load xc xs image i l0;
    lane.tags.(i) <- t_float
  | Op_store ->
    (* the immediate on a store is an address displacement, not an
       operand substitute: data always arrives on op1 *)
    if lane.tags.(l0) = t_null || lane.tags.(l1) = t_null then begin
      lane.tags.(i) <- t_null;
      xc.addr.(i) <- 0
    end
    else begin
      xc.addr.(i) <- address xs lane l0 i;
      copy_lane lane l1 lane i
    end;
    xc.sbuf.(xc.nsb) <- i;
    xc.nsb <- xc.nsb + 1
  | Op_branch -> ()

(* ------------------------------------------------------------------ *)
(* The general dataflow engine                                         *)
(* ------------------------------------------------------------------ *)

(* Every instruction is pushed once, when its last needed operand
   arrives, and a deferred load is either here or in [pending_loads]:
   [ready] never holds more than the block's instructions. *)
let push_ready xc i =
  xc.ready.(xc.nready) <- i;
  xc.nready <- xc.nready + 1

let log_pop xc kind i a b =
  let k = 4 * xc.nlog in
  if k + 4 > Array.length xc.log then begin
    let grown = Array.make (2 * Array.length xc.log) 0 in
    Array.blit xc.log 0 grown 0 k;
    xc.log <- grown
  end;
  xc.log.(k) <- kind;
  xc.log.(k + 1) <- i;
  xc.log.(k + 2) <- a;
  xc.log.(k + 3) <- b;
  xc.nlog <- xc.nlog + 1

(* [enc] is a pre-encoded target (see {!xstatic}); [src] the producer,
   [-r - 1] for read slot [r]. *)
let deliver xc xs src enc =
  if enc < 0 then begin
    let w = -enc - 1 in
    let l = lane_of xs src in
    if xc.lane.tags.(l) = t_null then
      raise (Stuck (xs.xs_block.label, "null token delivered to a write slot"));
    let bit = 1 lsl w in
    if xc.wmask land bit <> 0 then xc.wdup <- true
    else begin
      xc.wmask <- xc.wmask lor bit;
      xc.wsrc.(w) <- l
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
    if s = 0 then xc.src0.(i) <- src
    else if s = 1 then xc.src1.(i) <- src
    else begin
      if xs.xs_pred.(i) <> 0 && xc.lane.tags.(lane_of xs src) = t_null then
        raise (Stuck (xs.xs_block.label, "null predicate"));
      xc.srcp.(i) <- src
    end;
    let need = xs.xs_need.(i) in
    if g' land need = need && g land need <> need then push_ready xc i
  end

(* deliver to every target of inst [i], in program target order *)
let deliver_all xc xs i =
  for k = xs.xs_toff.(i) to xs.xs_toff.(i + 1) - 1 do
    deliver xc xs i (Array.unsafe_get xs.xs_tenc k)
  done

(* Pop instruction [i], whose needed operands have all arrived.  A
   squashed instruction (predicate mismatch) does nothing; a load whose
   lower-LSID stores have not all fired waits in [pending_loads].  Every
   predicate test and every fire is logged. *)
let fire ~fuel xc xs image i =
  let b = xs.xs_block in
  let ins = Array.unsafe_get b.insts i in
  let p = xs.xs_pred.(i) in
  let go =
    p = 0 || truthy b.label xc.lane (lane_of xs xc.srcp.(i)) = (p = 1)
  in
  let test pass = if p <> 0 then log_pop xc 1 i (lane_of xs xc.srcp.(i)) pass in
  if not go then test 0
  else
    match ins.op with
    | Isa.Load _ when xc.fired.(i) -> ()
    | Isa.Load (_, _, lsid) when xc.unstored land ((1 lsl lsid) - 1) <> 0 ->
      test 1;
      xc.pending_loads <- i :: xc.pending_loads
    | op ->
      test 1;
      xc.fired.(i) <- true;
      xc.order.(xc.nfired) <- i;
      xc.nfired <- xc.nfired + 1;
      decr fuel;
      if !fuel <= 0 then raise (Stuck (b.label, "out of fuel"));
      let g = xc.got.(i) in
      let l0 = if g land g_op0 <> 0 then lane_of xs xc.src0.(i) else 0 in
      let l1 = if g land g_op1 <> 0 then lane_of xs xc.src1.(i) else 0 in
      log_pop xc 0 i l0 l1;
      compute xc xs image i l0 l1;
      match op with
      | Isa.Store (_, lsid) ->
        let c = xc.store_cnt.(lsid) + 1 in
        xc.store_cnt.(lsid) <- c;
        if c = xs.xs_sites.(lsid) then
          xc.unstored <- xc.unstored land lnot (1 lsl lsid);
        (* a completed store may unblock deferred loads *)
        List.iter (push_ready xc) xc.pending_loads;
        xc.pending_loads <- []
      | Isa.Branch _ ->
        if xc.exit_i >= 0 then raise (Stuck (b.label, "two branches fired"));
        xc.exit_i <- i
      | _ -> deliver_all xc xs i

(* [j], a producer of a useful instruction, is useful; negative is a
   read slot *)
let mark useful j = if j >= 0 then Array.unsafe_set useful j true

(* Run one instance in the general engine, logging its effectful pops,
   and return its shape.  Nothing is committed. *)
let general ~fuel xc xs image : shape =
  let b = xs.xs_block in
  let n = xs.xs_n in
  let got = xc.got in
  Array.fill got 0 n 0;
  if xs.xs_store_sites > 0 then Array.fill xc.store_cnt 0 Isa.max_lsids 0;
  let fired = Array.make n false in
  xc.fired <- fired;
  xc.nready <- 0;
  xc.nfired <- 0;
  xc.pending_loads <- [];
  xc.nsb <- 0;
  xc.unstored <- xs.xs_store_lsids;
  xc.exit_i <- -1;
  xc.wmask <- 0;
  xc.wdup <- false;
  xc.nlog <- 0;
  (* inject register reads (their lanes are already loaded) *)
  for r = 0 to Array.length b.reads - 1 do
    for k = xs.xs_roff.(r) to xs.xs_roff.(r + 1) - 1 do
      deliver xc xs (-r - 1) (Array.unsafe_get xs.xs_renc k)
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
  if xc.nsb <> xs.xs_store_sites then
    raise (Stuck (b.label, Printf.sprintf "only %d/%d stores completed" xc.nsb xs.xs_store_sites));
  let declared = Array.length b.writes in
  if xc.wmask <> (1 lsl declared) - 1 then begin
    let rec popcount m = if m = 0 then 0 else 1 + popcount (m land (m - 1)) in
    raise
      (Stuck
         ( b.label,
           Printf.sprintf "only %d/%d writes completed" (popcount xc.wmask) declared ))
  end;
  if xc.wdup then raise (Stuck (b.label, "a write slot received two values"));
  (* usefulness: reverse reachability from the outputs (the branch,
     stores, write producers) over the dynamic operand edges.  A producer
     fires before all of its consumers, so one pass in reverse firing
     order settles every instruction before its producers are visited;
     the same pass folds the per-instruction statistics. *)
  let useful = Array.make n false in
  let executed = xc.nfired in
  let not_used = ref 0 and useful_n = ref 0 in
  let arith = ref 0 and memory = ref 0 and control = ref 0 and test = ref 0 in
  let move = ref 0 and flops = ref 0 and loads = ref [] in
  let et_et = ref 0 and dt_et = ref 0 and et_rt = ref 0 in
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
      loads := i :: !loads
    end
    else et_et := !et_et + Array.unsafe_get xs.xs_inst_targets i
  done;
  (* stores commit in LSID order, the newer of two with one LSID first;
     memory events list the stores and then the loads, each in firing
     order, stably sorted by LSID *)
  let stores = List.init xc.nsb (fun k -> xc.sbuf.(k)) in
  let by_lsid j j' = Int.compare xs.xs_lsid.(j) xs.xs_lsid.(j') in
  let nonnull j = xc.lane.tags.(j) <> t_null in
  let commit = List.filter nonnull (List.stable_sort by_lsid (List.rev stores)) in
  let event j =
    { ev_inst = j; ev_lsid = xs.xs_lsid.(j); ev_is_load = xs.xs_is_load.(j);
      ev_addr = 0; ev_width = xs.xs_width.(j);
      ev_null = not (xs.xs_is_load.(j) || nonnull j) }
  in
  let nloads = List.length !loads in
  {
    sh_fired = fired;
    sh_useful = useful;
    sh_stats =
      [| 1; n; executed; n - executed; !not_used; !useful_n; !arith; !memory;
         !control; !test; !move; Array.length b.reads; declared;
         List.length commit; nloads; !et_et; xs.xs_read_inst;
         !et_rt + xs.xs_read_write; nloads + xc.nsb; !dt_et; 1; !flops |];
    sh_exit = exit_i;
    sh_dest = exit_dest;
    sh_wsrc = Array.sub xc.wsrc 0 declared;
    sh_commit = Array.of_list commit;
    sh_events =
      Array.of_list (List.map event (List.stable_sort by_lsid (stores @ !loads)));
  }

(* Add the shape just run from [xc.log] to the block's trie.  The log
   agrees with the trie up to the first test whose outcome has no child
   yet: up to there, the general engine did what the recorded shapes
   did. *)
let record xc xs shape =
  let log = xc.log in
  let rec build pos =
    let stop = ref pos in
    while !stop < xc.nlog && log.(4 * !stop) = 0 do incr stop done;
    let steps =
      Array.init (3 * (!stop - pos)) (fun k -> log.((4 * (pos + (k / 3))) + 1 + (k mod 3)))
    in
    if !stop = xc.nlog then { steps; next = Leaf shape }
    else begin
      let t = 4 * !stop in
      let child = Some (build (!stop + 1)) in
      let passed = log.(t + 3) = 1 in
      { steps;
        next =
          Test
            { inst = log.(t + 1); lane = log.(t + 2);
              go = (if passed then child else None);
              squash = (if passed then None else child) } }
    end
  in
  let rec walk node pos =
    let pos = pos + (Array.length node.steps / 3) in
    match node.next with
    | Leaf _ -> ()
    | Test t ->
      assert (log.(4 * pos) = 1 && log.((4 * pos) + 1) = t.inst);
      let passed = log.((4 * pos) + 3) = 1 in
      (match if passed then t.go else t.squash with
      | Some child -> walk child (pos + 1)
      | None ->
        let child = Some (build (pos + 1)) in
        if passed then t.go <- child else t.squash <- child;
        xs.xs_traces <- xs.xs_traces + 1)
  in
  match xs.xs_trie with
  | None ->
    xs.xs_trie <- Some (build 0);
    xs.xs_traces <- 1
  | Some root -> walk root 0

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

(* What [replay] returns, compared physically, when an outcome has no
   recorded child: an [option] would allocate on every replayed
   instance. *)
let unrecorded =
  { sh_fired = [||]; sh_useful = [||]; sh_stats = [||]; sh_exit = -1;
    sh_dest = Isa.Xret; sh_wsrc = [||]; sh_commit = [||]; sh_events = [||] }

(* Re-run a recorded schedule from [node]: its fires straight through,
   then its test, which picks the child to continue in.  [unrecorded]
   when the outcome has no recorded child; nothing has been committed by
   then. *)
let rec replay ~fuel xc xs image node =
  let steps = node.steps in
  let k = ref 0 in
  let m = Array.length steps in
  (* fuel is taken per fire, as the general engine takes it, only when
     the node's fires could exhaust it *)
  let ample = !fuel > m / 3 in
  if ample then fuel := !fuel - (m / 3);
  while !k < m do
    if not ample then begin
      decr fuel;
      if !fuel <= 0 then raise (Stuck (xs.xs_block.label, "out of fuel"))
    end;
    compute xc xs image (Array.unsafe_get steps !k)
      (Array.unsafe_get steps (!k + 1)) (Array.unsafe_get steps (!k + 2));
    k := !k + 3
  done;
  match node.next with
  | Leaf shape -> shape
  | Test t -> (
    let passed = truthy xs.xs_block.label xc.lane t.lane = (xs.xs_pred.(t.inst) = 1) in
    match if passed then t.go else t.squash with
    | Some child -> replay ~fuel xc xs image child
    | None -> unrecorded)

(* ------------------------------------------------------------------ *)
(* Single block execution                                              *)
(* ------------------------------------------------------------------ *)

let add_stats stats (d : int array) =
  stats.blocks <- stats.blocks + d.(0);
  stats.fetched <- stats.fetched + d.(1);
  stats.executed <- stats.executed + d.(2);
  stats.not_executed <- stats.not_executed + d.(3);
  stats.executed_not_used <- stats.executed_not_used + d.(4);
  stats.useful <- stats.useful + d.(5);
  stats.k_arith <- stats.k_arith + d.(6);
  stats.k_memory <- stats.k_memory + d.(7);
  stats.k_control <- stats.k_control + d.(8);
  stats.k_test <- stats.k_test + d.(9);
  stats.k_move <- stats.k_move + d.(10);
  stats.reads_fetched <- stats.reads_fetched + d.(11);
  stats.writes_committed <- stats.writes_committed + d.(12);
  stats.stores_committed <- stats.stores_committed + d.(13);
  stats.loads_executed <- stats.loads_executed + d.(14);
  stats.opn_et_et <- stats.opn_et_et + d.(15);
  stats.opn_rt_et <- stats.opn_rt_et + d.(16);
  stats.opn_et_rt <- stats.opn_et_rt + d.(17);
  stats.opn_et_dt <- stats.opn_et_dt + d.(18);
  stats.opn_dt_et <- stats.opn_dt_et + d.(19);
  stats.opn_et_gt <- stats.opn_et_gt + d.(20);
  stats.flops <- stats.flops + d.(21)

(* Execute one block instance against register file and memory: replay
   a recorded schedule, or run the general engine (recording the new
   shape while the block has room), then commit its stores and register
   writes and fold its statistics. *)
let exec_block ~stats ~fuel ~(xc : xscratch) (xs : xstatic) (regs : lanes)
    (image : Image.t) : instance =
  let b = xs.xs_block in
  let n = xs.xs_n in
  xscratch_grow xc xs;
  for r = 0 to Array.length b.reads - 1 do
    copy_lane regs b.reads.(r).Block.rreg xc.lane (n + r)
  done;
  xc.nsb <- 0;
  let fuel0 = !fuel in
  let replayed =
    match xs.xs_trie with Some root -> replay ~fuel xc xs image root | None -> unrecorded
  in
  let shape =
    if replayed != unrecorded then replayed
    else begin
      fuel := fuel0;
      let shape = general ~fuel xc xs image in
      if xs.xs_traces < max_traces then record xc xs shape;
      shape
    end
  in
  (* commit stores in LSID order, then register writes *)
  let commit = shape.sh_commit in
  for k = 0 to Array.length commit - 1 do
    let j = commit.(k) in
    Image.store_lane image xs.xs_width.(j) xc.addr.(j) xc.lane.bits j
  done;
  let wsrc = shape.sh_wsrc in
  for w = 0 to Array.length wsrc - 1 do
    copy_lane xc.lane wsrc.(w) regs b.writes.(w).wreg
  done;
  add_stats stats shape.sh_stats;
  let events = shape.sh_events in
  let mem_events = ref [] in
  for k = Array.length events - 1 downto 0 do
    let e = events.(k) in
    mem_events := { e with ev_addr = xc.addr.(e.ev_inst) } :: !mem_events
  done;
  let mem_events = !mem_events in
  { iblock = b; iindex = xs.xs_index; fired = shape.sh_fired;
    useful = shape.sh_useful; exit_inst = shape.sh_exit;
    exit_dest = shape.sh_dest; mem_events }

(* ------------------------------------------------------------------ *)
(* Program execution                                                   *)
(* ------------------------------------------------------------------ *)

(* A call's frame: the caller's register file, its return block's index
   and label. *)
type frame = { saved : lanes; mutable ret : int; mutable ret_label : string }

let blocks (p : Block.program) =
  Array.of_list (List.concat_map (fun (f : Block.func) -> f.blocks) p.funcs)

let run ?(fuel = 400_000_000) ?on_instance (p : Block.program)
    (image : Image.t) ~entry ~args =
  let stats = empty_stats () in
  let fuel = ref fuel in
  let regs = make_lanes Isa.num_regs in
  List.iteri
    (fun i v ->
      match List.nth_opt abi_arg_regs i with
      | Some r -> set_value regs r v
      | None -> invalid_arg "Exec.run: too many arguments")
    args;
  (* blocks are dispatched by index: labels and callees are resolved
     once, when a block's static facts are built *)
  let blocks = blocks p in
  let labels = Hashtbl.create 256 in
  Array.iteri (fun k (b : Block.t) -> Hashtbl.replace labels b.label k) blocks;
  let index l = Option.value ~default:(-1) (Hashtbl.find_opt labels l) in
  let find_func f = List.find_opt (fun (g : Block.func) -> g.fname = f) p.funcs in
  let entry_of f = match find_func f with Some g -> index g.entry | None -> -2 in
  (* per-block static facts and recorded schedules, private to this run *)
  let statics = Array.make (Array.length blocks) None in
  let xc = make_xscratch () in
  (* [k] is the next block's index, [label] its name for errors *)
  let static k label =
    if k < 0 then raise (Stuck (label, "unknown block"));
    match statics.(k) with
    | Some xs -> xs
    | None ->
      let xs = build_xstatic ~index ~entry:entry_of k blocks.(k) in
      statics.(k) <- Some xs;
      xs
  in
  let entry_f =
    match find_func entry with
    | Some f -> f
    | None -> raise (Stuck (entry, "unknown function " ^ entry))
  in
  (* call stack: per depth, the caller's saved register file, return
     block and its label; a frame is allocated the first time its depth
     is reached and reused after *)
  let frames = ref [||] and depth = ref 0 in
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
      if !depth = Array.length !frames then
        frames :=
          Array.append !frames
            (Array.init (max 8 !depth) (fun _ ->
                 { saved = make_lanes Isa.num_regs; ret = 0; ret_label = "" }));
      let f = !frames.(!depth) in
      blit_lanes regs f.saved;
      f.ret <- xs.xs_ret.(instance.exit_inst);
      f.ret_label <- retl;
      incr depth;
      current := static next callee
    | Isa.Xret ->
      if !depth = 0 then finished := Some (value entry regs abi_ret_reg)
      else begin
        decr depth;
        let f = !frames.(!depth) in
        let ret_tag = regs.tags.(abi_ret_reg) and ret_bits = get_bits regs abi_ret_reg in
        blit_lanes f.saved regs;
        set_lane regs abi_ret_reg ret_tag ret_bits;
        current := static f.ret f.ret_label
      end
  done;
  { ret = !finished; stats }
