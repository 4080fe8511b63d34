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
(* Single block execution                                              *)
(* ------------------------------------------------------------------ *)

type pending_store = {
  ps_inst : int;
  ps_lsid : int;
  ps_width : Ty.width;
  ps_addr : int;           (* meaningless when nullified *)
  ps_data : token;
}

let token_int label = function
  | Val v -> Ty.as_int v
  | Nul -> raise (Stuck (label, "null token in arithmetic"))

(* Facts about a block that the executor needs on every instance but that
   depend only on the static code: computed once per label in {!run}.

   Targets are pre-encoded as ints ([To_write w] is [-w - 1], [To_inst
   (i, s)] is [i * 4 + slot]) in one flat array per block so the fire
   loop iterates a slice instead of walking a list of boxed variants. *)
type xstatic = {
  xs_store_sites : int;                (* static stores in the block *)
  xs_stores_below : int array;         (* per LSID L: stores with lsid < L *)
  xs_zero_ready : int array;           (* 0-arity unpredicated insts *)
  xs_write_producer : bool array;      (* has a To_write target *)
  xs_arity : int array;                (* operand arity per inst *)
  xs_is_load : bool array;             (* is a load per inst *)
  xs_class : Isa.klass array;          (* Isa.classify per inst *)
  xs_toff : int array;                 (* inst -> first encoded target *)
  xs_tenc : int array;                 (* encoded targets, flattened *)
  xs_roff : int array;                 (* read -> first encoded target *)
  xs_renc : int array;                 (* encoded read targets, flattened *)
}

let encode_target = function
  | Isa.To_write w -> -w - 1
  | Isa.To_inst (i, Isa.Op0) -> i * 4
  | Isa.To_inst (i, Isa.Op1) -> (i * 4) + 1
  | Isa.To_inst (i, Isa.OpPred) -> (i * 4) + 2

let build_xstatic (b : Block.t) : xstatic =
  let max_lsid = ref 0 in
  Array.iter
    (fun (ins : Isa.inst) ->
      match ins.op with
      | Isa.Store (_, l) | Isa.Load (_, _, l) ->
        if l > !max_lsid then max_lsid := l
      | _ -> ())
    b.insts;
  let stores_below = Array.make (!max_lsid + 2) 0 in
  let store_sites = ref 0 in
  Array.iter
    (fun (ins : Isa.inst) ->
      match ins.op with
      | Isa.Store (_, l) ->
        incr store_sites;
        for k = l + 1 to !max_lsid + 1 do
          stores_below.(k) <- stores_below.(k) + 1
        done
      | _ -> ())
    b.insts;
  let zero = ref [] in
  for i = Array.length b.insts - 1 downto 0 do
    let ins = b.insts.(i) in
    if Isa.operand_arity ins = 0 && ins.Isa.pred = Isa.Unpred then
      zero := i :: !zero
  done;
  let n = Array.length b.insts in
  let toff = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    toff.(i + 1) <- toff.(i) + List.length b.insts.(i).Isa.targets
  done;
  let tenc = Array.make (max 1 toff.(n)) 0 in
  for i = 0 to n - 1 do
    List.iteri
      (fun k t -> tenc.(toff.(i) + k) <- encode_target t)
      b.insts.(i).Isa.targets
  done;
  let nr = Array.length b.reads in
  let roff = Array.make (nr + 1) 0 in
  for r = 0 to nr - 1 do
    roff.(r + 1) <- roff.(r) + List.length b.reads.(r).Block.rtargets
  done;
  let renc = Array.make (max 1 roff.(nr)) 0 in
  for r = 0 to nr - 1 do
    List.iteri
      (fun k t -> renc.(roff.(r) + k) <- encode_target t)
      b.reads.(r).Block.rtargets
  done;
  {
    xs_store_sites = !store_sites;
    xs_stores_below = stores_below;
    xs_zero_ready = Array.of_list !zero;
    xs_write_producer =
      Array.map
        (fun (ins : Isa.inst) ->
          List.exists
            (function Isa.To_write _ -> true | Isa.To_inst _ -> false)
            ins.Isa.targets)
        b.insts;
    xs_arity = Array.map Isa.operand_arity b.insts;
    xs_is_load =
      Array.map
        (fun (ins : Isa.inst) ->
          match ins.Isa.op with Isa.Load _ -> true | _ -> false)
        b.insts;
    xs_class = Array.map (fun (ins : Isa.inst) -> Isa.classify ins.Isa.op) b.insts;
    xs_toff = toff;
    xs_tenc = tenc;
    xs_roff = roff;
    xs_renc = renc;
  }

(* Reusable per-instance state, grown to the largest block executed so far
   so the hot loop allocates almost nothing per instance.  Operand slots
   are struct-of-arrays with a presence bitmask ([xg_*] bits below)
   instead of one record of [token option]s per instruction. *)
let g_op0 = 1
let g_op1 = 2
let g_pred = 4

type xscratch = {
  mutable got : int array;             (* presence bitmask per inst *)
  mutable tok0 : token array;
  mutable tok1 : token array;
  mutable tokp : token array;
  mutable src0 : int array;            (* producer index, -1 = read slot *)
  mutable src1 : int array;
  mutable srcp : int array;
  mutable value : token array;         (* result after firing *)
  mutable ustack : int array;          (* usefulness DFS worklist *)
  mutable ring : int array;            (* ready queue (FIFO) *)
  mutable rhead : int;
  mutable rlen : int;
  mutable store_cnt : int array;       (* fired stores per LSID *)
}

let make_xscratch () =
  {
    got = Array.make Isa.max_insts 0;
    tok0 = Array.make Isa.max_insts Nul;
    tok1 = Array.make Isa.max_insts Nul;
    tokp = Array.make Isa.max_insts Nul;
    src0 = Array.make Isa.max_insts (-1);
    src1 = Array.make Isa.max_insts (-1);
    srcp = Array.make Isa.max_insts (-1);
    value = Array.make Isa.max_insts Nul;
    ustack = Array.make Isa.max_insts 0;
    ring = Array.make 256 0;
    rhead = 0;
    rlen = 0;
    store_cnt = Array.make (Isa.max_lsids + 2) 0;
  }

let xscratch_grow xc n max_lsid =
  if n > Array.length xc.got then begin
    xc.got <- Array.make n 0;
    xc.tok0 <- Array.make n Nul;
    xc.tok1 <- Array.make n Nul;
    xc.tokp <- Array.make n Nul;
    xc.src0 <- Array.make n (-1);
    xc.src1 <- Array.make n (-1);
    xc.srcp <- Array.make n (-1);
    xc.value <- Array.make n Nul;
    xc.ustack <- Array.make n 0
  end;
  if max_lsid + 2 > Array.length xc.store_cnt then
    xc.store_cnt <- Array.make (max_lsid + 2) 0

let ring_push xc i =
  let cap = Array.length xc.ring in
  if xc.rlen = cap then begin
    let ring' = Array.make (2 * cap) 0 in
    for k = 0 to xc.rlen - 1 do
      ring'.(k) <- xc.ring.((xc.rhead + k) land (cap - 1))
    done;
    xc.ring <- ring';
    xc.rhead <- 0
  end;
  let cap = Array.length xc.ring in
  xc.ring.((xc.rhead + xc.rlen) land (cap - 1)) <- i;
  xc.rlen <- xc.rlen + 1

let ring_pop xc =
  let i = xc.ring.(xc.rhead) in
  xc.rhead <- (xc.rhead + 1) land (Array.length xc.ring - 1);
  xc.rlen <- xc.rlen - 1;
  i

(* Execute one block instance against register file and memory.
   Returns the instance plus commit effects. *)
let exec_block ~stats ~fuel ~(xs : xstatic) ~(xc : xscratch) (b : Block.t)
    (regs : Ty.value array) (image : Image.t) : instance * (int * Ty.value) list =
  let n = Array.length b.insts in
  let max_lsid = Array.length xs.xs_stores_below - 2 in
  xscratch_grow xc n max_lsid;
  let got = xc.got and tok0 = xc.tok0 and tok1 = xc.tok1 and tokp = xc.tokp in
  let src0 = xc.src0 and src1 = xc.src1 and srcp = xc.srcp in
  let value = xc.value in
  for i = 0 to n - 1 do
    Array.unsafe_set got i 0;
    Array.unsafe_set src0 i (-1);
    Array.unsafe_set src1 i (-1);
    Array.unsafe_set srcp i (-1)
  done;
  Array.fill xc.store_cnt 0 (max_lsid + 2) 0;
  xc.rhead <- 0;
  xc.rlen <- 0;
  let fired = Array.make n false in
  let write_results : (int * Ty.value) list ref = ref [] in   (* write slot -> value *)
  let stores : pending_store list ref = ref [] in
  let stores_done = ref 0 in
  let exit_fired = ref None in
  let pending_loads : int list ref = ref [] in
  (* can a load with this lsid go? all static stores with lower lsid done *)
  let lower_stores_done lsid =
    let fired_below = ref 0 in
    for l = 0 to lsid - 1 do
      fired_below := !fired_below + xc.store_cnt.(l)
    done;
    !fired_below = xs.xs_stores_below.(lsid)
  in
  (* forward from in-flight stores: build each byte from the youngest
     lower-LSID store covering it, falling back to memory.  The common
     case — no in-flight lower-LSID store overlaps the loaded range — is
     detected with one scan and served by a single full-width read. *)
  let load_value ty width lsid addr =
    let bytes = Ty.bytes_of_width width in
    let overlapping = ref false in
    List.iter
      (fun ps ->
        if
          (match ps.ps_data with Nul -> false | Val _ -> true)
          && ps.ps_lsid < lsid
          && ps.ps_addr < addr + bytes
          && addr < ps.ps_addr + Ty.bytes_of_width ps.ps_width
        then overlapping := true)
      !stores;
    if not !overlapping then begin
      let raw = Image.load_u image width addr in
      match ty with
      | Ty.I64 -> Ty.Vi (Semantics.zext width raw)
      | Ty.F64 -> Ty.Vf (Int64.float_of_bits raw)
    end
    else begin
      let byte k =
        let a = addr + k in
        let best = ref None in
        List.iter
          (fun ps ->
            if (match ps.ps_data with Nul -> false | Val _ -> true)
               && ps.ps_lsid < lsid
            then begin
              let sb = Ty.bytes_of_width ps.ps_width in
              if a >= ps.ps_addr && a < ps.ps_addr + sb then
                match !best with
                | Some prev when prev.ps_lsid >= ps.ps_lsid -> ()
                | _ -> best := Some ps
            end)
          !stores;
        match !best with
        | Some ps ->
          let data = match ps.ps_data with Val v -> v | Nul -> assert false in
          let raw = (match data with Ty.Vi i -> i | Ty.Vf f -> Int64.bits_of_float f) in
          Int64.to_int (Int64.logand (Int64.shift_right_logical raw (8 * (a - ps.ps_addr))) 0xFFL)
        | None -> Int64.to_int (Image.load_u image Ty.W1 a)
      in
      let raw = ref 0L in
      for k = bytes - 1 downto 0 do
        raw := Int64.logor (Int64.shift_left !raw 8) (Int64.of_int (byte k))
      done;
      match ty with
      | Ty.I64 -> Ty.Vi (Semantics.zext width !raw)
      | Ty.F64 -> Ty.Vf (Int64.float_of_bits !raw)
    end
  in
  (* [enc] is a pre-encoded target (see {!xstatic}). *)
  let deliver src tok enc =
    if enc < 0 then begin
      let w = -enc - 1 in
      stats.opn_et_rt <- stats.opn_et_rt + 1;
      match tok with
      | Val v -> write_results := (w, v) :: !write_results
      | Nul -> raise (Stuck (b.label, "null token delivered to a write slot"))
    end
    else begin
      let i = enc lsr 2 and s = enc land 3 in
      if src < 0 then stats.opn_rt_et <- stats.opn_rt_et + 1
      else if xs.xs_is_load.(src) then stats.opn_dt_et <- stats.opn_dt_et + 1
      else stats.opn_et_et <- stats.opn_et_et + 1;
      (if s = 0 then begin
         if got.(i) land g_op0 <> 0 then
           raise (Stuck (b.label, Printf.sprintf "I%d.op0 double delivery" i));
         got.(i) <- got.(i) lor g_op0;
         tok0.(i) <- tok;
         src0.(i) <- src
       end
       else if s = 1 then begin
         if got.(i) land g_op1 <> 0 then
           raise (Stuck (b.label, Printf.sprintf "I%d.op1 double delivery" i));
         got.(i) <- got.(i) lor g_op1;
         tok1.(i) <- tok;
         src1.(i) <- src
       end
       else begin
         if got.(i) land g_pred <> 0 then
           raise (Stuck (b.label, Printf.sprintf "I%d.pred double delivery" i));
         got.(i) <- got.(i) lor g_pred;
         tokp.(i) <- tok;
         srcp.(i) <- src
       end);
      ring_push xc i
    end
  in
  (* deliver to every target of inst [i], in program target order *)
  let deliver_all i tok =
    let stop = Array.unsafe_get xs.xs_toff (i + 1) in
    for k = Array.unsafe_get xs.xs_toff i to stop - 1 do
      deliver i tok (Array.unsafe_get xs.xs_tenc k)
    done
  in
  (* predicate check: 0 = not yet decidable, 1 = fire, 2 = squash *)
  let pred_ok i (ins : Isa.inst) =
    match ins.pred with
    | Isa.Unpred -> 1
    | Isa.On_true _ ->
      if got.(i) land g_pred = 0 then 0
      else (
        match tokp.(i) with
        | Val v -> if Ty.truthy v then 1 else 2
        | Nul -> raise (Stuck (b.label, "null predicate")))
    | Isa.On_false _ ->
      if got.(i) land g_pred = 0 then 0
      else (
        match tokp.(i) with
        | Val v -> if Ty.truthy v then 2 else 1
        | Nul -> raise (Stuck (b.label, "null predicate")))
  in
  let rec mem_int i l =
    match l with [] -> false | x :: tl -> x = i || mem_int i tl
  in
  let try_fire i =
    let ins = b.insts.(i) in
    if fired.(i) then ()
    else
      let arity = Array.unsafe_get xs.xs_arity i in
      let have_ops =
        (arity < 1 || got.(i) land g_op0 <> 0)
        && (arity < 2 || got.(i) land g_op1 <> 0)
      in
      match pred_ok i ins with
      | 0 -> ()
      | 2 -> () (* squashed: counted as fetched-not-executed *)
      | _ ->
        if not have_ops then ()
        else begin
          (* loads must wait for all lower-LSID stores *)
          let defer =
            match ins.op with
            | Isa.Load (_, _, lsid) -> not (lower_stores_done lsid)
            | _ -> false
          in
          if defer then begin
            if not (mem_int i !pending_loads) then
              pending_loads := i :: !pending_loads
          end
          else begin
            fired.(i) <- true;
            decr fuel;
            if !fuel <= 0 then raise (Stuck (b.label, "out of fuel"));
            (match ins.op with
            | Isa.Bin op ->
              let a = tok0.(i) in
              let b2 =
                match ins.imm with
                | Some v -> Val (Ty.Vi v)
                | None -> tok1.(i)
              in
              (match (a, b2) with
              | Val va, Val vb -> value.(i) <- Val (Semantics.binop op va vb)
              | _ -> raise (Stuck (b.label, "null operand in ALU op")));
              if is_flop ins.op then stats.flops <- stats.flops + 1;
              deliver_all i value.(i)
            | Isa.Un op ->
              (match tok0.(i) with
              | Val v -> value.(i) <- Val (Semantics.unop op v)
              | Nul -> raise (Stuck (b.label, "null operand in ALU op")));
              deliver_all i value.(i)
            | Isa.Geni v ->
              value.(i) <- Val (Ty.Vi v);
              deliver_all i value.(i)
            | Isa.Genf v ->
              value.(i) <- Val (Ty.Vf v);
              deliver_all i value.(i)
            | Isa.Mov ->
              value.(i) <- tok0.(i);
              deliver_all i value.(i)
            | Isa.Null ->
              value.(i) <- Nul;
              deliver_all i value.(i)
            | Isa.Load (ty, w, lsid) ->
              stats.opn_et_dt <- stats.opn_et_dt + 1;
              let addr =
                Int64.to_int (token_int b.label tok0.(i))
                + (match ins.imm with Some v -> Int64.to_int v | None -> 0)
              in
              let v = load_value ty w lsid addr in
              value.(i) <- Val v;
              deliver_all i value.(i)
            | Isa.Store (w, lsid) ->
              stats.opn_et_dt <- stats.opn_et_dt + 1;
              (* the immediate on a store is an address displacement, not an
                 operand substitute: data always arrives on op1 *)
              let a = tok0.(i) and d = tok1.(i) in
              let nullified =
                (match a with Nul -> true | Val _ -> false)
                || (match d with Nul -> true | Val _ -> false)
              in
              let addr =
                if nullified then 0
                else
                  Int64.to_int (token_int b.label a)
                  + (match ins.imm with Some v -> Int64.to_int v | None -> 0)
              in
              stores :=
                { ps_inst = i; ps_lsid = lsid; ps_width = w; ps_addr = addr;
                  ps_data = (if nullified then Nul else d) }
                :: !stores;
              xc.store_cnt.(lsid) <- xc.store_cnt.(lsid) + 1;
              incr stores_done;
              (* a completed store may unblock deferred loads *)
              let retry = !pending_loads in
              pending_loads := [];
              List.iter (fun j -> ring_push xc j) retry
            | Isa.Branch dest ->
              stats.opn_et_gt <- stats.opn_et_gt + 1;
              (match !exit_fired with
              | Some _ -> raise (Stuck (b.label, "two branches fired"))
              | None -> exit_fired := Some (i, dest)))
          end
        end
  in
  (* inject register reads *)
  for r = 0 to Array.length b.reads - 1 do
    let tok = Val regs.(b.reads.(r).Block.rreg) in
    for k = xs.xs_roff.(r) to xs.xs_roff.(r + 1) - 1 do
      deliver (-1) tok (Array.unsafe_get xs.xs_renc k)
    done
  done;
  (* zero-operand instructions are ready immediately *)
  Array.iter (fun i -> ring_push xc i) xs.xs_zero_ready;
  (* dataflow loop *)
  let rec drain () =
    if xc.rlen > 0 then begin
      let i = ring_pop xc in
      try_fire i;
      drain ()
    end
    else if (match !pending_loads with [] -> false | _ -> true) then begin
      (* deferred loads whose guard may now pass *)
      let ls = !pending_loads in
      pending_loads := [];
      let before = List.length ls in
      List.iter (fun j -> ring_push xc j) ls;
      let rec step () =
        if xc.rlen > 0 then begin
          let i = ring_pop xc in
          try_fire i;
          step ()
        end
      in
      step ();
      if List.length !pending_loads >= before && xc.rlen = 0 then
        raise (Stuck (b.label, "loads deadlocked on incomplete stores"))
      else drain ()
    end
  in
  drain ();
  (* completeness checks *)
  let exit_i, exit_dest =
    match !exit_fired with
    | None -> raise (Stuck (b.label, "no branch fired"))
    | Some e -> e
  in
  if !stores_done <> xs.xs_store_sites then
    raise (Stuck (b.label, Printf.sprintf "only %d/%d stores completed" !stores_done xs.xs_store_sites));
  let committed_writes = !write_results in
  let declared = Array.length b.writes in
  let got_writes = List.sort_uniq Int.compare (List.map fst committed_writes) in
  if List.length got_writes <> declared then
    raise (Stuck (b.label, Printf.sprintf "only %d/%d writes completed" (List.length got_writes) declared));
  if List.length committed_writes <> declared then
    raise (Stuck (b.label, "a write slot received two values"));
  (* commit stores in LSID order *)
  let sorted_stores =
    List.sort (fun a b2 -> Int.compare a.ps_lsid b2.ps_lsid) !stores
  in
  List.iter
    (fun ps ->
      match ps.ps_data with
      | Nul -> ()
      | Val v -> Image.store image ps.ps_width ps.ps_addr v)
    sorted_stores;
  (* usefulness: reverse reachability from outputs over dynamic edges *)
  let useful = Array.make n false in
  let ustack = xc.ustack in
  let sp = ref 0 in
  let push i =
    if i >= 0 && not useful.(i) then begin
      useful.(i) <- true;
      ustack.(!sp) <- i;
      incr sp
    end
  in
  push exit_i;
  (* write producers: any fired instruction with a To_write target *)
  for i = 0 to n - 1 do
    if fired.(i) && xs.xs_write_producer.(i) then push i
  done;
  List.iter (fun ps -> push ps.ps_inst) !stores;
  while !sp > 0 do
    decr sp;
    let i = ustack.(!sp) in
    push src0.(i);
    push src1.(i);
    push srcp.(i)
  done;
  (* fold into stats *)
  stats.blocks <- stats.blocks + 1;
  stats.fetched <- stats.fetched + n;
  stats.reads_fetched <- stats.reads_fetched + Array.length b.reads;
  stats.writes_committed <- stats.writes_committed + declared;
  let mem_events = ref [] in
  for i = 0 to n - 1 do
    if fired.(i) then begin
      stats.executed <- stats.executed + 1;
      let cls = Array.unsafe_get xs.xs_class i in
      (match cls with
      | Isa.Karith -> stats.k_arith <- stats.k_arith + 1
      | Isa.Kmemory -> stats.k_memory <- stats.k_memory + 1
      | Isa.Kcontrol -> stats.k_control <- stats.k_control + 1
      | Isa.Ktest -> stats.k_test <- stats.k_test + 1
      | Isa.Kmove -> stats.k_move <- stats.k_move + 1);
      if not useful.(i) then stats.executed_not_used <- stats.executed_not_used + 1
      else (
        match cls with
        | Isa.Kmove -> ()
        | _ -> stats.useful <- stats.useful + 1);
      match b.insts.(i).op with
      | Isa.Load (_, w, lsid) ->
        stats.loads_executed <- stats.loads_executed + 1;
        let ins = b.insts.(i) in
        let addr =
          Int64.to_int (token_int b.label tok0.(i))
          + (match ins.imm with Some v -> Int64.to_int v | None -> 0)
        in
        mem_events :=
          { ev_inst = i; ev_lsid = lsid; ev_is_load = true; ev_addr = addr;
            ev_width = w; ev_null = false }
          :: !mem_events
      | _ -> ()
    end
    else stats.not_executed <- stats.not_executed + 1
  done;
  List.iter
    (fun ps ->
      let nul = match ps.ps_data with Nul -> true | Val _ -> false in
      if not nul then stats.stores_committed <- stats.stores_committed + 1;
      mem_events :=
        { ev_inst = ps.ps_inst; ev_lsid = ps.ps_lsid; ev_is_load = false;
          ev_addr = ps.ps_addr; ev_width = ps.ps_width; ev_null = nul }
        :: !mem_events)
    !stores;
  let mem_events =
    List.sort (fun a b2 -> Int.compare a.ev_lsid b2.ev_lsid) !mem_events
  in
  ( { iblock = b; fired; useful; exit_inst = exit_i; exit_dest; mem_events },
    committed_writes )

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
  (* one table holding both the block and its static facts: a single
     lookup per dynamic block instance *)
  let blocks = Hashtbl.create 256 in
  List.iter
    (fun (f : Block.func) ->
      List.iter
        (fun (b : Block.t) -> Hashtbl.replace blocks b.label (b, build_xstatic b))
        f.blocks)
    p.funcs;
  let xc = make_xscratch () in
  let entry_f = Block.find_func p entry in
  (* call stack: saved register file + return label *)
  let stack : (Ty.value array * string) list ref = ref [] in
  let current = ref (Some entry_f.entry) in
  let finished = ref None in
  while match !finished with None -> true | Some _ -> false do
    match !current with
    | None -> assert false
    | Some label ->
      let b, xs =
        match Hashtbl.find_opt blocks label with
        | Some bx -> bx
        | None -> raise (Stuck (label, "unknown block"))
      in
      let instance, writes = exec_block ~stats ~fuel ~xs ~xc b regs image in
      (* commit register writes *)
      List.iter (fun (w, v) -> regs.(b.writes.(w).wreg) <- v) writes;
      Option.iter (fun f -> f instance) on_instance;
      (match instance.exit_dest with
      | Isa.Xjump l -> current := Some l
      | Isa.Xcall (callee, retl) ->
        let f = Block.find_func p callee in
        stack := (Array.copy regs, retl) :: !stack;
        current := Some f.entry
      | Isa.Xret -> (
        match !stack with
        | [] -> finished := Some regs.(abi_ret_reg)
        | (saved, retl) :: rest ->
          let ret_v = regs.(abi_ret_reg) in
          Array.blit saved 0 regs 0 (Array.length regs);
          regs.(abi_ret_reg) <- ret_v;
          stack := rest;
          current := Some retl))
  done;
  { ret = !finished; stats }
