module Ty = Trips_tir.Ty
module Image = Trips_tir.Image
module Isa = Trips_edge.Isa
module Block = Trips_edge.Block
module Exec = Trips_edge.Exec
module Blockpred = Trips_predictor.Blockpred
module Depend = Trips_predictor.Depend
module Cache = Trips_mem.Cache
module Hier = Trips_mem.Hier
module Opn = Trips_noc.Opn

type config = {
  predictor : Blockpred.config;
  fetch_interval : int;
  dispatch_rate : int;
  redirect_penalty : int;
  flush_penalty : int;
  commit_overhead : int;
  window_blocks : int;
  l1d : Cache.config;
  l1i : Cache.config;
  l2 : Cache.config;
  dram : Hier.dram_config;
}

let prototype =
  {
    predictor = Blockpred.prototype;
    fetch_interval = 8;
    dispatch_rate = 16;
    redirect_penalty = 8;
    flush_penalty = 13;
    commit_overhead = 4;
    window_blocks = 8;
    l1d = Cache.trips_l1d;
    l1i = Cache.trips_l1i;
    l2 = Cache.trips_l2;
    dram = Hier.trips_dram;
  }

type stats = {
  mutable cycles : int;
  mutable blocks : int;
  mutable branch_mispredicts : int;
  mutable callret_mispredicts : int;
  mutable load_flushes : int;
  mutable icache_misses : int;
  mutable dcache_misses : int;
  mutable l2_misses : int;
  mutable occupancy_weighted : float;
  mutable occupancy_useful : float;
  mutable peak_occupancy : int;
  mutable l1d_bytes : int;
  mutable l2_bytes : int;
  mutable dram_bytes : int;
}

(* Measured per-block timing, aggregated over every committed instance of
   one static block: the static timing analyzer cross-validates its
   predicted critical paths against [bo_latency / bo_instances]. *)
type block_obs = {
  mutable bo_instances : int;
  mutable bo_latency : int;     (* sum of (all outputs done - dispatch start) *)
  mutable bo_residency : int;   (* sum of (commit - fetch) *)
}

type result = {
  ret : Ty.value option;
  exec : Exec.stats;
  timing : stats;
  opn : Opn.profile;
  opn_average_hops : float;
  block_profile : (string * block_obs) list;  (* sorted by label *)
}

(* Compressed code footprint of a block: a 128-byte header plus 128-byte
   chunks of 32 instructions (§4.4). *)
let block_bytes n_insts = 128 + (128 * ((max 1 n_insts + 31) / 32))

(* ------------------------------------------------------------------ *)
(* Static timing plans                                                 *)
(* ------------------------------------------------------------------ *)

(* Everything [time_block] needs that depends only on the static block
   (and the fixed [config]) is derived once per block label and reused by
   every committed instance: placement positions, operand/predicate
   arities, per-op latencies, flattened target lists, load/store LSIDs
   with their precomputed {!Depend} site ids, dispatch offsets, the code
   address and footprint, the exit list and the measured profile.
   Per-instance work then touches only instance-varying state (which
   instructions fired, memory event addresses, register availability).

   Targets are a CSR-style flat encoding: instruction [i]'s targets are
   [p_tgt.(p_toff.(i)) .. p_tgt.(p_toff.(i+1) - 1)].  An entry [v >= 0]
   is a consumer instruction index; [v < 0] refers to register-write
   occurrence [-v - 1] in [p_wreg]/[p_wpos].  Read slot targets use the
   same encoding in [p_rtgt]/[p_roff].  The kind/lsid/latency columns are
   plain int arrays so the instance loop never chases variant pointers. *)

let k_alu = 0
let k_load = 1
let k_store = 2
let k_branch = 3

type plan = {
  p_label : string;
  mutable p_id : int;                (* interned label id; -1 until first use *)
  p_addr : int;                      (* code address *)
  p_bytes : int;                     (* compressed footprint *)
  p_n : int;
  p_pos : (int * int) array;         (* per-inst ET mesh position *)
  p_tile : int array;                (* per-inst ET index *)
  p_need : int array;                (* operand arity + predicate slot *)
  p_lat : int array;                 (* Isa.latency per instruction *)
  p_kind : int array;                (* k_alu / k_load / k_store / k_branch *)
  p_lsid : int array;                (* loads and stores; -1 otherwise *)
  p_wait : int array;                (* Depend site id of the wait check *)
  p_viol : int array;                (* Depend site id of violation learning *)
  p_toff : int array;                (* n+1 offsets into p_tgt *)
  p_tgt : int array;
  p_wreg : int array;                (* per To_write occurrence: arch reg *)
  p_wpos : (int * int) array;        (* and its RT mesh position *)
  p_disp : int array;                (* dispatch offset: 1 + i / rate *)
  p_disp_done : int;                 (* offset of last dispatch *)
  p_zero : int array;                (* indices with p_need = 0, ascending *)
  p_rd_reg : int array;              (* read slots: arch reg *)
  p_rd_pos : (int * int) array;      (* and its RT mesh position *)
  p_roff : int array;                (* reads+1 offsets into p_rtgt *)
  p_rtgt : int array;
  p_exits : int array;               (* branch inst indices, ascending *)
  (* per exit, the successors resolved when the plans are built: the
     jump target or the callee's entry ([None]: unknown function), and a
     call's return block *)
  mutable p_next : plan option array;
  mutable p_ret : plan option array;
  (* precomputed operand-network paths.  Almost every message's endpoints
     are static per block, so the link ids it claims are too: variant [v]
     is [p_paths.(p_voff.(v)) .. p_voff.(v) + p_vlen.(v) - 1].  Loads
     deliver from the data tile of the accessed bank, so load edges and
     ET->DT hops carry four consecutive variants, indexed by bank. *)
  p_tvar : int array;                (* per p_tgt entry: variant base *)
  p_tci : int array;                 (* per p_tgt entry: message class *)
  p_dtvar : int array;               (* per inst: ET->DT variant base, -1 *)
  p_brvar : int array;               (* per branch inst: ET->GT variant, -1 *)
  p_rvar : int array;                (* per p_rtgt To_inst entry: RT->ET *)
  p_voff : int array;
  p_vlen : int array;
  p_paths : int array;
  p_obs : block_obs;                 (* measured profile, updated in place *)
}

(* Reusable per-instance scratch state, sized once for the largest block
   of the program so [time_block] allocates nothing per instance. *)
type scratch = {
  sc_cnt : int array;                (* arrived operand count per inst *)
  sc_arr : int array;                (* max arrival time per inst *)
  sc_done : int array;               (* completion time, -1 = pending *)
  sc_et : int array;                 (* per-ET next free issue cycle *)
  sc_dt : int array;                 (* per-DT-bank next free cycle *)
  sc_store : int array;              (* per-LSID store DT arrival, min_int = none *)
  sc_ev_addr : int array;            (* memory event of the inst, addr *)
  sc_ev_width : int array;           (* bytes *)
  sc_ev_bank : int array;            (* L1D bank of the event address *)
  sc_ev_null : bool array;
  sc_has_ev : bool array;
  (* calendar queue on readiness time: one LIFO bucket per cycle, linked
     through [q_next] (every instruction enters the queue at most once).
     Readiness times are monotone during the drain — an instruction only
     becomes ready at or after the time currently being processed — so a
     cursor sweeping forward pops in exactly the seed's order: minimum
     time first, most recent push first among equals.  Buckets self-clean
     as they drain, so per-instance reset is just the cursor. *)
  mutable q_head : int array;          (* time offset -> inst or -1 *)
  mutable q_bits : int array;          (* bucket-occupancy bitmap, 32/word *)
  q_next : int array;
  mutable q_cursor : int;              (* current time offset *)
  mutable q_count : int;
  mutable q_base : int;                (* time of offset 0 *)
  (* per-instance memory events, struct-of-arrays *)
  m_lsid : int array;
  m_load : bool array;
  m_addr : int array;
  m_width : int array;
  m_null : bool array;
  m_time : int array;
  m_viol : int array;                (* violation site id (loads) *)
  mutable m_cnt : int;
  (* violation sweep: event indices sorted by LSID *)
  v_load : int array;
  v_store : int array;
  (* register writes of the instance, in append order *)
  w_reg : int array;
  w_time : int array;
  mutable w_cnt : int;
}

let make_scratch ~max_insts ~max_writes ~max_lsid =
  let n = max max_insts 1 in
  let w = max max_writes 1 in
  {
    sc_cnt = Array.make n 0;
    sc_arr = Array.make n min_int;
    sc_done = Array.make n (-1);
    sc_et = Array.make Isa.num_ets 0;
    sc_dt = Array.make Isa.num_dt_banks 0;
    sc_store = Array.make (max (max_lsid + 1) Isa.max_lsids) min_int;
    sc_ev_addr = Array.make n 0;
    sc_ev_width = Array.make n 0;
    sc_ev_bank = Array.make n 0;
    sc_ev_null = Array.make n false;
    sc_has_ev = Array.make n false;
    q_head = Array.make 4096 (-1);
    q_bits = Array.make ((4096 lsr 5) + 1) 0;
    q_next = Array.make n (-1);
    q_cursor = 0;
    q_count = 0;
    q_base = 0;
    m_lsid = Array.make n 0;
    m_load = Array.make n false;
    m_addr = Array.make n 0;
    m_width = Array.make n 0;
    m_null = Array.make n false;
    m_time = Array.make n 0;
    m_viol = Array.make n 0;
    m_cnt = 0;
    v_load = Array.make n 0;
    v_store = Array.make n 0;
    w_reg = Array.make w 0;
    w_time = Array.make w 0;
    w_cnt = 0;
  }

(* The heap and scratch columns are only ever indexed by instruction
   indices of the current block (validated against the scratch capacity
   when plans are built) or by the current heap size, so the hot loops
   use unchecked array access. *)

(* [queue_push] files instruction [idx] under readiness time [t].  Times
   never precede the cursor (see the monotonicity note on [scratch]), so
   a popped bucket is never pushed into again once the cursor passes it. *)
let queue_push sc t idx =
  let off = t - sc.q_base in
  if off >= Array.length sc.q_head then begin
    let cap = ref (2 * Array.length sc.q_head) in
    while off >= !cap do cap := 2 * !cap done;
    let h = Array.make !cap (-1) in
    Array.blit sc.q_head 0 h 0 (Array.length sc.q_head);
    sc.q_head <- h;
    let b = Array.make ((!cap lsr 5) + 1) 0 in
    Array.blit sc.q_bits 0 b 0 (Array.length sc.q_bits);
    sc.q_bits <- b
  end;
  let prev = Array.unsafe_get sc.q_head off in
  Array.unsafe_set sc.q_next idx prev;
  Array.unsafe_set sc.q_head off idx;
  if prev < 0 then begin
    let w = off lsr 5 in
    Array.unsafe_set sc.q_bits w
      (Array.unsafe_get sc.q_bits w lor (1 lsl (off land 31)))
  end;
  sc.q_count <- sc.q_count + 1

(* Int-specialized max for the hot paths: [Stdlib.max] is polymorphic
   and compiles to an out-of-line structural comparison. *)
let[@inline] imax (a : int) (b : int) = if a >= b then a else b

(* Lowest set bit index of a non-zero 32-bit word, by de Bruijn multiply:
   isolate the low bit, multiply by the de Bruijn constant, and the top
   5 bits of the 32-bit product name the position. *)
let ctz_tab =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let ctz x =
  Array.unsafe_get ctz_tab ((((x land (-x)) * 0x077CB531) land 0xFFFFFFFF) lsr 27)

(* Pops the instruction with the smallest readiness time (ties: most
   recently pushed first); -1 when empty.  The cursor bucket is always
   the minimum occupied time or earlier, so when it is non-empty the pop
   needs no bitmap scan at all — the common case inside a busy cycle. *)
let queue_pop sc =
  if sc.q_count = 0 then -1
  else begin
    let bits = sc.q_bits in
    let cur = sc.q_cursor in
    let i0 = Array.unsafe_get sc.q_head cur in
    if i0 >= 0 then begin
      let nx = Array.unsafe_get sc.q_next i0 in
      Array.unsafe_set sc.q_head cur nx;
      if nx < 0 then begin
        let w = cur lsr 5 in
        Array.unsafe_set bits w
          (Array.unsafe_get bits w land lnot (1 lsl (cur land 31)))
      end;
      sc.q_count <- sc.q_count - 1;
      i0
    end
    else begin
      let w = ref (cur lsr 5) in
      let word =
        ref (Array.unsafe_get bits !w land ((-1) lsl (cur land 31)))
      in
      while !word = 0 do
        incr w;
        word := Array.unsafe_get bits !w
      done;
      let bit = ctz !word in
      let off = (!w lsl 5) + bit in
      sc.q_cursor <- off;
      let i = Array.unsafe_get sc.q_head off in
      let nx = Array.unsafe_get sc.q_next i in
      Array.unsafe_set sc.q_head off nx;
      if nx < 0 then
        Array.unsafe_set bits !w (Array.unsafe_get bits !w land lnot (1 lsl bit));
      sc.q_count <- sc.q_count - 1;
      i
    end
  end

type sim = {
  cfg : config;
  pred : Blockpred.t;
  dep : Depend.t;
  opn : Opn.t;
  l1d : Cache.t;
  l1i : Cache.t;
  l2 : Cache.t;
  mutable dram_free_at : int;
  st : stats;
  (* static timing plans, one per block in {!Exec.blocks} order
     (address, interned id and measured profile live inside the plan) *)
  plans : plan array;
  mutable next_id : int;                      (* label id counter *)
  dt_pos : (int * int) array;                 (* DT bank mesh positions *)
  scratch : scratch;
  mutable reg_ready : int array;              (* RT value availability *)
  mutable shadow_stack : plan list;           (* return blocks *)
  (* previous block bookkeeping *)
  mutable prev : prev option;
  mutable last_commit : int;
  mutable commits : int array;                (* ring of commit times *)
  mutable seq : int;
  (* in-flight block window: a bounded ring ordered by (monotone) commit
     time; [infl_insts] is the running instruction count of the window *)
  mutable infl_fetch : int array;
  mutable infl_commit : int array;
  mutable infl_size : int array;
  mutable infl_head : int;
  mutable infl_len : int;
  mutable infl_insts : int;
}

and prev = {
  p_fetch : int;
  p_resolve : int;
  p_correct : bool;
  p_kind : Blockpred.kind;
}

(* Label interning preserves the seed's first-dynamic-use id assignment
   (the predictor's table indexing depends on the id values): ids are
   handed out in the order labels are first interned at run time, not in
   program order. *)
let intern_plan s (p : plan) =
  if p.p_id < 0 then begin
    p.p_id <- s.next_id;
    s.next_id <- s.next_id + 1
  end;
  p.p_id

let build_plan (cfg : config) (b : Block.t) ~addr : plan =
  let n = Array.length b.Block.insts in
  let label = b.Block.label in
  let fail i msg =
    invalid_arg (Printf.sprintf "Core: block %s I%d %s" label i msg)
  in
  (* flatten targets; writes table holds one entry per To_write occurrence *)
  let wreg = ref [] and wpos = ref [] and wcount = ref 0 in
  let encode i = function
    | Isa.To_inst (j, _) ->
      if j < 0 || j >= n then fail i "targets an out-of-range instruction";
      j
    | Isa.To_write w ->
      if w < 0 || w >= Array.length b.Block.writes then
        fail i "targets an out-of-range write slot";
      let reg = b.Block.writes.(w).Block.wreg in
      wreg := reg :: !wreg;
      wpos := Isa.rt_position reg :: !wpos;
      incr wcount;
      - !wcount            (* occurrence id !wcount - 1, encoded negative *)
  in
  let toff = Array.make (n + 1) 0 in
  let tgt_rev = ref [] in
  for i = 0 to n - 1 do
    List.iter
      (fun t -> tgt_rev := encode i t :: !tgt_rev)
      b.Block.insts.(i).Isa.targets;
    toff.(i + 1) <- List.length !tgt_rev
  done;
  let nr = Array.length b.Block.reads in
  let roff = Array.make (nr + 1) 0 in
  let rtgt_rev = ref [] in
  for r = 0 to nr - 1 do
    List.iter
      (fun t -> rtgt_rev := encode (-1) t :: !rtgt_rev)
      b.Block.reads.(r).Block.rtargets;
    roff.(r + 1) <- List.length !rtgt_rev
  done;
  let of_rev_list l = Array.of_list (List.rev l) in
  let need =
    Array.init n (fun i ->
        let ins = b.Block.insts.(i) in
        Isa.operand_arity ins
        + (match ins.Isa.pred with Isa.Unpred -> 0 | _ -> 1))
  in
  let zero = ref [] in
  for i = n - 1 downto 0 do
    if need.(i) = 0 then zero := i :: !zero
  done;
  let kind = Array.make n k_alu in
  let lsid = Array.make n (-1) in
  let wait = Array.make n 0 in
  let viol = Array.make n 0 in
  for i = 0 to n - 1 do
    match b.Block.insts.(i).Isa.op with
    | Isa.Load (_, _, l) ->
      if l < 0 then fail i "has a negative LSID";
      kind.(i) <- k_load;
      lsid.(i) <- l;
      (* the wait check is keyed by instruction index, violation learning
         by LSID — the seed's (asymmetric) site ids, preserved
         bit-for-bit *)
      wait.(i) <- Depend.site_id ~block:label i;
      viol.(i) <- Depend.site_id ~block:label l
    | Isa.Store (_, l) ->
      if l < 0 then fail i "has a negative LSID";
      kind.(i) <- k_store;
      lsid.(i) <- l
    | Isa.Branch _ -> kind.(i) <- k_branch
    | _ -> ()
  done;
  Array.iteri
    (fun i t ->
      if t < 0 || t >= Isa.num_ets then fail i "is placed on an invalid ET")
    b.Block.placement;
  let pos = Array.init n (fun i -> Isa.tile_position b.Block.placement.(i)) in
  let wpos_a = of_rev_list !wpos in
  let rd_pos =
    Array.map
      (fun (r : Block.read) -> Isa.rt_position r.Block.rreg)
      b.Block.reads
  in
  let dt_pos = Array.init Isa.num_dt_banks Isa.dt_position in
  (* path-variant table: flatten every static route once *)
  let voff = ref [] and vlen = ref [] and nvar = ref 0 in
  let paths = ref [] and npath = ref 0 in
  let add_variant src dst =
    let ids = Opn.path_ids ~src ~dst in
    voff := !npath :: !voff;
    vlen := List.length ids :: !vlen;
    List.iter (fun id -> paths := id :: !paths; incr npath) ids;
    let v = !nvar in
    incr nvar;
    v
  in
  let tgt = of_rev_list !tgt_rev in
  let tvar = Array.make (Array.length tgt) (-1) in
  let tci = Array.make (Array.length tgt) 0 in
  let ci = Opn.class_index in
  for i = 0 to n - 1 do
    for k = toff.(i) to toff.(i + 1) - 1 do
      let v = tgt.(k) in
      if v >= 0 then
        if kind.(i) = k_load then begin
          (* four variants, one per source data tile *)
          let base = add_variant dt_pos.(0) pos.(v) in
          for bk = 1 to Isa.num_dt_banks - 1 do
            ignore (add_variant dt_pos.(bk) pos.(v))
          done;
          tvar.(k) <- base;
          tci.(k) <- ci Opn.Dt_et
        end
        else begin
          tvar.(k) <- add_variant pos.(i) pos.(v);
          tci.(k) <- ci Opn.Et_et
        end
      else begin
        tvar.(k) <- add_variant pos.(i) wpos_a.(-v - 1);
        tci.(k) <- ci Opn.Et_rt
      end
    done
  done;
  let dtvar = Array.make n (-1) in
  let brvar = Array.make n (-1) in
  for i = 0 to n - 1 do
    if kind.(i) = k_load || kind.(i) = k_store then begin
      let base = add_variant pos.(i) dt_pos.(0) in
      for bk = 1 to Isa.num_dt_banks - 1 do
        ignore (add_variant pos.(i) dt_pos.(bk))
      done;
      dtvar.(i) <- base
    end
    else if kind.(i) = k_branch then
      brvar.(i) <- add_variant pos.(i) Isa.gt_position
  done;
  let rtgt = of_rev_list !rtgt_rev in
  let rvar = Array.make (max 1 (Array.length rtgt)) (-1) in
  for r = 0 to nr - 1 do
    for k = roff.(r) to roff.(r + 1) - 1 do
      if rtgt.(k) >= 0 then rvar.(k) <- add_variant rd_pos.(r) pos.(rtgt.(k))
    done
  done;
  {
    p_label = label;
    p_id = -1;
    p_addr = addr;
    p_bytes = block_bytes n;
    p_n = n;
    p_pos = pos;
    p_tile = Array.copy b.Block.placement;
    p_need = need;
    p_lat = Array.init n (fun i -> Isa.latency b.Block.insts.(i).Isa.op);
    p_kind = kind;
    p_lsid = lsid;
    p_wait = wait;
    p_viol = viol;
    p_toff = toff;
    p_tgt = tgt;
    p_wreg = of_rev_list !wreg;
    p_wpos = wpos_a;
    p_disp = Array.init n (fun i -> 1 + (i / cfg.dispatch_rate));
    p_disp_done = 1 + ((max 1 n - 1) / cfg.dispatch_rate);
    p_zero = Array.of_list !zero;
    p_rd_reg = Array.map (fun (r : Block.read) -> r.Block.rreg) b.Block.reads;
    p_rd_pos = rd_pos;
    p_roff = roff;
    p_rtgt = rtgt;
    p_exits = Array.of_list (List.map fst (Block.exits b));
    p_next = [||];
    p_ret = [||];
    p_tvar = tvar;
    p_tci = tci;
    p_dtvar = dtvar;
    p_brvar = brvar;
    p_rvar = rvar;
    p_voff = of_rev_list !voff;
    p_vlen = of_rev_list !vlen;
    p_paths = of_rev_list !paths;
    p_obs = { bo_instances = 0; bo_latency = 0; bo_residency = 0 };
  }

let dram_latency s ~now =
  let line = s.cfg.l2.Cache.line in
  let occupancy =
    int_of_float (ceil (float_of_int line /. s.cfg.dram.Hier.bytes_per_cycle))
  in
  let start = imax now s.dram_free_at in
  s.dram_free_at <- start + occupancy;
  s.st.dram_bytes <- s.st.dram_bytes + line;
  (start - now) + s.cfg.dram.Hier.dram_latency + occupancy

(* L2 access from either side; returns latency. *)
let l2_access s ~addr ~write ~now =
  s.st.l2_bytes <- s.st.l2_bytes + s.cfg.l2.Cache.line;
  let lat = Cache.hit_latency_of_bank s.l2 (Cache.bank_of s.l2 ~addr) in
  if Cache.access s.l2 ~addr ~write then lat
  else begin
    s.st.l2_misses <- s.st.l2_misses + 1;
    lat + dram_latency s ~now:(now + lat)
  end

let icache_fetch s ~addr ~bytes ~now =
  let line = s.cfg.l1i.Cache.line in
  let first = addr / line and last = (addr + bytes - 1) / line in
  let extra = ref 0 in
  for l = first to last do
    let a = l * line in
    if not (Cache.access s.l1i ~addr:a ~write:false) then begin
      s.st.icache_misses <- s.st.icache_misses + 1;
      let miss = l2_access s ~addr:a ~write:false ~now in
      if miss > !extra then extra := miss
    end
  done;
  (Cache.config s.l1i).Cache.hit_latency + !extra

(* ------------------------------------------------------------------ *)
(* Per-instance dataflow timing                                        *)
(* ------------------------------------------------------------------ *)

(* Result of timing one block instance.  Register writes land in the
   scratch [w_reg]/[w_time] arrays (consumed by [run] right after). *)
type btime = {
  bt_resolve : int;           (* branch resolution at the GT *)
  bt_done : int;              (* all outputs produced *)
  bt_flushed : bool;
}

(* The end of [time_block]: the store-load violation sweep over the
   instance's memory events, the load-wait learning, and the
   completion/flush arithmetic.  [resolve] is the branch-resolution time
   accumulated during the drain. *)
let finish_instance s (cfg : config) ~resolve : btime =
  let sc = s.scratch in
  (* store-load violations: a load that accessed the DT before an earlier
     (lower-LSID) overlapping store arrived.  LSID-sorted interval scan:
     loads walk in LSID order against the prefix of lower-LSID stores,
     skipped entirely while the prefix's max arrival cannot exceed the
     load's *)
  let flushed = ref false in
  let nl = ref 0 and ns = ref 0 in
  for k = 0 to sc.m_cnt - 1 do
    if Array.unsafe_get sc.m_load k then begin
      Array.unsafe_set sc.v_load !nl k;
      incr nl
    end
    else if not (Array.unsafe_get sc.m_null k) then begin
      Array.unsafe_set sc.v_store !ns k;
      incr ns
    end
  done;
  let m_lsid = sc.m_lsid and m_time = sc.m_time in
  let sort_by_lsid arr len =
    for a = 1 to len - 1 do
      let x = Array.unsafe_get arr a in
      let lx = Array.unsafe_get m_lsid x in
      let b = ref (a - 1) in
      while !b >= 0 && Array.unsafe_get m_lsid (Array.unsafe_get arr !b) > lx do
        Array.unsafe_set arr (!b + 1) (Array.unsafe_get arr !b);
        decr b
      done;
      Array.unsafe_set arr (!b + 1) x
    done
  in
  sort_by_lsid sc.v_load !nl;
  sort_by_lsid sc.v_store !ns;
  let sp = ref 0 and smax = ref min_int in
  for a = 0 to !nl - 1 do
    let li = Array.unsafe_get sc.v_load a in
    let lsid = Array.unsafe_get m_lsid li in
    while
      !sp < !ns && Array.unsafe_get m_lsid (Array.unsafe_get sc.v_store !sp) < lsid
    do
      let t = Array.unsafe_get m_time (Array.unsafe_get sc.v_store !sp) in
      if t > !smax then smax := t;
      incr sp
    done;
    let lt = Array.unsafe_get m_time li in
    if !smax > lt then begin
      (* some lower-LSID store arrived later: scan the prefix for overlap *)
      let laddr = Array.unsafe_get sc.m_addr li in
      let lwidth = Array.unsafe_get sc.m_width li in
      let hit = ref false in
      let b = ref 0 in
      while (not !hit) && !b < !sp do
        let si = Array.unsafe_get sc.v_store !b in
        if
          Array.unsafe_get m_time si > lt
          && Array.unsafe_get sc.m_addr si < laddr + lwidth
          && laddr < Array.unsafe_get sc.m_addr si + Array.unsafe_get sc.m_width si
        then hit := true;
        incr b
      done;
      if !hit then begin
        flushed := true;
        (* learn: next time this load waits *)
        Depend.record_violation s.dep ~load_id:(Array.unsafe_get sc.m_viol li)
      end
    end
  done;
  if !flushed then s.st.load_flushes <- s.st.load_flushes + 1;
  let all_done = ref resolve in
  for k = 0 to sc.m_cnt - 1 do
    let t = Array.unsafe_get m_time k in
    if t > !all_done then all_done := t
  done;
  for k = 0 to sc.w_cnt - 1 do
    if sc.w_time.(k) > !all_done then all_done := sc.w_time.(k)
  done;
  let all_done = if !flushed then !all_done + cfg.flush_penalty else !all_done in
  {
    bt_resolve = imax resolve (if !flushed then all_done else resolve);
    bt_done = all_done;
    bt_flushed = !flushed;
  }

let time_block s (cfg : config) (plan : plan) (inst : Exec.instance)
    ~dispatch_start : btime =
  let n = plan.p_n in
  let fired = inst.Exec.fired in
  let sc = s.scratch in
  let sc_cnt = sc.sc_cnt and sc_arr = sc.sc_arr and sc_done = sc.sc_done in
  let sc_has_ev = sc.sc_has_ev in
  let p_need = plan.p_need and p_disp = plan.p_disp and p_pos = plan.p_pos in
  let p_tgt = plan.p_tgt and p_toff = plan.p_toff in
  (* reset instance-varying scratch *)
  for i = 0 to n - 1 do
    Array.unsafe_set sc_cnt i 0;
    Array.unsafe_set sc_arr i min_int;
    Array.unsafe_set sc_done i (-1);
    Array.unsafe_set sc_has_ev i false
  done;
  Array.fill sc.sc_et 0 (Array.length sc.sc_et) 0;
  Array.fill sc.sc_dt 0 (Array.length sc.sc_dt) 0;
  Array.fill sc.sc_store 0 (Array.length sc.sc_store) min_int;
  sc.q_cursor <- 0;
  sc.q_count <- 0;
  sc.q_base <- dispatch_start;
  sc.m_cnt <- 0;
  sc.w_cnt <- 0;
  (* memory-event lookup for fired loads/stores *)
  List.iter
    (fun (ev : Exec.mem_event) ->
      let i = ev.Exec.ev_inst in
      sc.sc_ev_addr.(i) <- ev.Exec.ev_addr;
      sc.sc_ev_width.(i) <- Ty.bytes_of_width ev.Exec.ev_width;
      sc.sc_ev_bank.(i) <- Cache.bank_of s.l1d ~addr:ev.Exec.ev_addr;
      sc.sc_ev_null.(i) <- ev.Exec.ev_null;
      sc_has_ev.(i) <- true)
    inst.Exec.mem_events;
  (* instructions dispatch progressively, [dispatch_rate] per cycle in slot
     order; the header's read/write slots dispatch first *)
  let dispatch_done = dispatch_start + plan.p_disp_done in
  let resolve = ref (dispatch_start + 1) in
  let push_write reg t =
    sc.w_reg.(sc.w_cnt) <- reg;
    sc.w_time.(sc.w_cnt) <- t;
    sc.w_cnt <- sc.w_cnt + 1
  in
  let push_mem i lsid is_load t =
    let k = sc.m_cnt in
    Array.unsafe_set sc.m_lsid k lsid;
    Array.unsafe_set sc.m_load k is_load;
    Array.unsafe_set sc.m_addr k (Array.unsafe_get sc.sc_ev_addr i);
    Array.unsafe_set sc.m_width k (Array.unsafe_get sc.sc_ev_width i);
    Array.unsafe_set sc.m_null k (Array.unsafe_get sc.sc_ev_null i);
    Array.unsafe_set sc.m_time k t;
    Array.unsafe_set sc.m_viol k (Array.unsafe_get plan.p_viol i);
    sc.m_cnt <- k + 1
  in
  let arrive j t =
    if Array.unsafe_get fired j then begin
      if t > Array.unsafe_get sc_arr j then Array.unsafe_set sc_arr j t;
      let c = Array.unsafe_get sc_cnt j + 1 in
      Array.unsafe_set sc_cnt j c;
      if c = Array.unsafe_get p_need j then
        queue_push sc
          (imax (dispatch_start + Array.unsafe_get p_disp j)
             (Array.unsafe_get sc_arr j))
          j
    end
  in
  let p_tvar = plan.p_tvar and p_tci = plan.p_tci in
  let p_voff = plan.p_voff and p_vlen = plan.p_vlen and p_paths = plan.p_paths in
  let deliver_targets i completion =
    let is_load = Array.unsafe_get plan.p_kind i = k_load in
    if is_load && not (Array.unsafe_get sc_has_ev i) then begin
      (* squashed load with no event (defensive): deliver from the ET *)
      let src_pos = Array.unsafe_get p_pos i in
      for k = Array.unsafe_get p_toff i to Array.unsafe_get p_toff (i + 1) - 1 do
        let v = Array.unsafe_get p_tgt k in
        if v >= 0 then
          arrive v
            (Opn.send s.opn ~src:src_pos ~dst:(Array.unsafe_get p_pos v)
               Opn.Dt_et ~now:completion)
        else begin
          let w = -v - 1 in
          push_write plan.p_wreg.(w)
            (Opn.send s.opn ~src:src_pos ~dst:plan.p_wpos.(w) Opn.Et_rt
               ~now:completion)
        end
      done
    end
    else begin
      (* loads deliver from the data tile of the accessed bank: their
         To_inst edges carry one path variant per bank *)
      let bank_add = if is_load then Array.unsafe_get sc.sc_ev_bank i else 0 in
      for k = Array.unsafe_get p_toff i to Array.unsafe_get p_toff (i + 1) - 1 do
        let v = Array.unsafe_get p_tgt k in
        if v >= 0 then begin
          let var = Array.unsafe_get p_tvar k + bank_add in
          let t =
            Opn.claim_path s.opn ~ci:(Array.unsafe_get p_tci k)
              ~paths:p_paths ~off:(Array.unsafe_get p_voff var)
              ~len:(Array.unsafe_get p_vlen var) ~now:completion
          in
          arrive v t
        end
        else begin
          let w = -v - 1 in
          let var = Array.unsafe_get p_tvar k in
          let t =
            Opn.claim_path s.opn ~ci:(Array.unsafe_get p_tci k)
              ~paths:p_paths ~off:(Array.unsafe_get p_voff var)
              ~len:(Array.unsafe_get p_vlen var) ~now:completion
          in
          push_write plan.p_wreg.(w) t
        end
      done
    end
  in
  (* inject reads *)
  let nr = Array.length plan.p_rd_reg in
  let ci_rt_et = 6 in
  for r = 0 to nr - 1 do
    let avail = imax dispatch_done s.reg_ready.(plan.p_rd_reg.(r)) in
    for k = plan.p_roff.(r) to plan.p_roff.(r + 1) - 1 do
      let v = plan.p_rtgt.(k) in
      if v >= 0 then begin
        let var = plan.p_rvar.(k) in
        let t =
          Opn.claim_path s.opn ~ci:ci_rt_et ~paths:p_paths
            ~off:(Array.unsafe_get p_voff var)
            ~len:(Array.unsafe_get p_vlen var) ~now:avail
        in
        arrive v t
      end
      else push_write plan.p_wreg.(-v - 1) avail
    done
  done;
  (* zero-operand fired instructions are ready once dispatched *)
  Array.iter
    (fun i ->
      if Array.unsafe_get fired i then
        queue_push sc (dispatch_start + Array.unsafe_get p_disp i) i)
    plan.p_zero;
  (* process in readiness-time order so operand-network link reservations
     stay chronological: contention then reflects genuine overlap *)
  let continue_ = ref true in
  while !continue_ do
    let i = queue_pop sc in
    if i < 0 then continue_ := false
    else if Array.unsafe_get sc_done i < 0 then begin
      let operand_ready =
        imax (dispatch_start + Array.unsafe_get p_disp i) (Array.unsafe_get sc_arr i)
      in
      let tile = Array.unsafe_get plan.p_tile i in
      let issue = imax operand_ready (Array.unsafe_get sc.sc_et tile) in
      Array.unsafe_set sc.sc_et tile (issue + 1);
      let kind = Array.unsafe_get plan.p_kind i in
      if kind = k_alu then begin
        let done_t = issue + Array.unsafe_get plan.p_lat i in
        Array.unsafe_set sc_done i done_t;
        deliver_targets i done_t
      end
      else if kind = k_load then begin
        if not (Array.unsafe_get sc_has_ev i) then
          (* squashed, defensive *)
          Array.unsafe_set sc_done i (issue + Array.unsafe_get plan.p_lat i)
        else begin
          let lsid = Array.unsafe_get plan.p_lsid i in
          let addr = Array.unsafe_get sc.sc_ev_addr i in
          let bank = Array.unsafe_get sc.sc_ev_bank i in
          (* predicted-dependent loads wait for all earlier stores *)
          let wait =
            if Depend.should_wait s.dep ~load_id:(Array.unsafe_get plan.p_wait i)
            then begin
              let acc = ref issue in
              for l = 0 to lsid - 1 do
                let t = Array.unsafe_get sc.sc_store l in
                if t > !acc then acc := t
              done;
              !acc
            end
            else issue
          in
          let var = Array.unsafe_get plan.p_dtvar i + bank in
          let at_dt =
            Opn.claim_path s.opn ~ci:1 ~paths:p_paths
              ~off:(Array.unsafe_get p_voff var)
              ~len:(Array.unsafe_get p_vlen var) ~now:wait
          in
          let start = imax at_dt (Array.unsafe_get sc.sc_dt bank) in
          Array.unsafe_set sc.sc_dt bank (start + 1);
          s.st.l1d_bytes <- s.st.l1d_bytes + Array.unsafe_get sc.sc_ev_width i;
          let lat =
            if Cache.access s.l1d ~addr ~write:false then
              Cache.hit_latency_of_bank s.l1d bank
            else begin
              s.st.dcache_misses <- s.st.dcache_misses + 1;
              (Cache.config s.l1d).Cache.hit_latency
              + l2_access s ~addr ~write:false ~now:start
            end
          in
          let data_ready = start + lat in
          Array.unsafe_set sc_done i data_ready;
          push_mem i lsid true start;
          deliver_targets i data_ready
        end
      end
      else if kind = k_store then begin
        let lsid = Array.unsafe_get plan.p_lsid i in
        let has_ev = Array.unsafe_get sc_has_ev i in
        if not has_ev then begin
          (* no event recorded: a nullified store with no address *)
          sc.sc_ev_addr.(i) <- 0;
          sc.sc_ev_width.(i) <- 0;
          sc.sc_ev_null.(i) <- true
        end;
        let is_null = Array.unsafe_get sc.sc_ev_null i in
        let addr = Array.unsafe_get sc.sc_ev_addr i in
        let bank =
          if is_null then lsid land 3 else Array.unsafe_get sc.sc_ev_bank i
        in
        let var = Array.unsafe_get plan.p_dtvar i + bank in
        let at_dt =
          Opn.claim_path s.opn ~ci:1 ~paths:p_paths
            ~off:(Array.unsafe_get p_voff var)
            ~len:(Array.unsafe_get p_vlen var)
            ~now:(issue + Array.unsafe_get plan.p_lat i)
        in
        let start = imax at_dt (Array.unsafe_get sc.sc_dt bank) in
        Array.unsafe_set sc.sc_dt bank (start + 1);
        if not is_null then begin
          s.st.l1d_bytes <- s.st.l1d_bytes + Array.unsafe_get sc.sc_ev_width i;
          if not (Cache.access s.l1d ~addr ~write:true) then begin
            s.st.dcache_misses <- s.st.dcache_misses + 1;
            ignore (l2_access s ~addr ~write:true ~now:start)
          end
        end;
        Array.unsafe_set sc_done i start;
        Array.unsafe_set sc.sc_store lsid start;
        push_mem i lsid false start
      end
      else begin
        (* branch *)
        let done_t = issue + Array.unsafe_get plan.p_lat i in
        Array.unsafe_set sc_done i done_t;
        let var = Array.unsafe_get plan.p_brvar i in
        let t =
          Opn.claim_path s.opn ~ci:3 ~paths:p_paths
            ~off:(Array.unsafe_get p_voff var)
            ~len:(Array.unsafe_get p_vlen var) ~now:done_t
        in
        if i = inst.Exec.exit_inst && t > !resolve then resolve := t
      end
    end
  done;
  finish_instance s cfg ~resolve:!resolve

(* ------------------------------------------------------------------ *)
(* Whole-program simulation                                            *)
(* ------------------------------------------------------------------ *)

let empty_stats () =
  {
    cycles = 0; blocks = 0; branch_mispredicts = 0; callret_mispredicts = 0;
    load_flushes = 0; icache_misses = 0; dcache_misses = 0; l2_misses = 0;
    occupancy_weighted = 0.; occupancy_useful = 0.; peak_occupancy = 0;
    l1d_bytes = 0; l2_bytes = 0; dram_bytes = 0;
  }

let make_sim ?(config = prototype) (program : Block.program) =
  (* static planning: code layout plus one timing plan per block *)
  let blocks = Exec.blocks program in
  let cursor = ref 0x4000000 in
  let max_insts = ref 1 and max_writes = ref 1 and max_lsid = ref 0 in
  let plans =
    Array.map
      (fun (b : Block.t) ->
        let addr = !cursor in
        cursor := !cursor + block_bytes (Array.length b.Block.insts);
        if Array.length b.Block.insts > !max_insts then
          max_insts := Array.length b.Block.insts;
        (* bound on register writes an instance can emit: one per
           To_write target, whether reached from an instruction or a
           read slot *)
        let writes = ref 0 in
        let count_targets =
          List.iter (function
            | Isa.To_write _ -> incr writes
            | Isa.To_inst _ -> ())
        in
        Array.iter
          (fun (ins : Isa.inst) ->
            count_targets ins.Isa.targets;
            match ins.Isa.op with
            | Isa.Load (_, _, lsid) | Isa.Store (_, lsid) ->
              if lsid > !max_lsid then max_lsid := lsid
            | _ -> ())
          b.Block.insts;
        Array.iter
          (fun (r : Block.read) -> count_targets r.Block.rtargets)
          b.Block.reads;
        if !writes > !max_writes then max_writes := !writes;
        build_plan config b ~addr)
      blocks
  in
  (* successors by label: a label defined twice names its later block and
     a function defined twice its later entry, as a table filled in
     program order would; a label with no block (defensive; not in a
     valid program) gets an empty plan of its own, so it still draws one
     predictor id on first use *)
  let by_label = Hashtbl.create 128 in
  Array.iter (fun (p : plan) -> Hashtbl.replace by_label p.p_label p) plans;
  let func_entry = Hashtbl.create 16 in
  List.iter
    (fun (f : Block.func) -> Hashtbl.replace func_entry f.Block.fname f.Block.entry)
    program.Block.funcs;
  let plan_of label =
    match Hashtbl.find_opt by_label label with
    | Some p -> p
    | None ->
      let p =
        build_plan config
          { Block.label; reads = [||]; writes = [||]; insts = [||]; placement = [||] }
          ~addr:0
      in
      Hashtbl.replace by_label label p;
      p
  in
  Array.iteri
    (fun k (b : Block.t) ->
      let exits = Array.of_list (List.map snd (Block.exits b)) in
      plans.(k).p_next <-
        Array.map
          (function
            | Isa.Xjump l -> Some (plan_of l)
            | Isa.Xcall (f, _) -> Option.map plan_of (Hashtbl.find_opt func_entry f)
            | Isa.Xret -> None)
          exits;
      plans.(k).p_ret <-
        Array.map
          (function Isa.Xcall (_, r) -> Some (plan_of r) | _ -> None)
          exits)
    blocks;
    {
      cfg = config;
      pred = Blockpred.create config.predictor;
      dep = Depend.create ();
      opn = Opn.create ();
      l1d = Cache.create config.l1d;
      l1i = Cache.create config.l1i;
      l2 = Cache.create config.l2;
      dram_free_at = 0;
      st = empty_stats ();
      plans;
      next_id = 1;
      dt_pos = Array.init Isa.num_dt_banks Isa.dt_position;
      scratch =
        make_scratch ~max_insts:!max_insts ~max_writes:!max_writes
          ~max_lsid:!max_lsid;
      reg_ready = Array.make Isa.num_regs 0;
      shadow_stack = [];
      prev = None;
      last_commit = 0;
      commits = Array.make config.window_blocks 0;
      seq = 0;
      infl_fetch = Array.make 64 0;
      infl_commit = Array.make 64 0;
      infl_size = Array.make 64 0;
      infl_head = 0;
      infl_len = 0;
      infl_insts = 0;
    }

let infl_push s fetch commit size =
    (* drop committed-before-this-fetch entries from the front (commit
       times are strictly increasing, so survivors form a suffix) *)
    while s.infl_len > 0 && s.infl_commit.(s.infl_head) <= fetch do
      s.infl_insts <- s.infl_insts - s.infl_size.(s.infl_head);
      s.infl_head <- (s.infl_head + 1) mod Array.length s.infl_fetch;
      s.infl_len <- s.infl_len - 1
    done;
    let cap = Array.length s.infl_fetch in
    if s.infl_len = cap then begin
      (* grow, unrolling the ring *)
      let cap' = 2 * cap in
      let f' = Array.make cap' 0 and c' = Array.make cap' 0 and z' = Array.make cap' 0 in
      for k = 0 to s.infl_len - 1 do
        let j = (s.infl_head + k) mod cap in
        f'.(k) <- s.infl_fetch.(j);
        c'.(k) <- s.infl_commit.(j);
        z'.(k) <- s.infl_size.(j)
      done;
      s.infl_fetch <- f';
      s.infl_commit <- c';
      s.infl_size <- z';
      s.infl_head <- 0
    end;
    let tail = (s.infl_head + s.infl_len) mod Array.length s.infl_fetch in
    s.infl_fetch.(tail) <- fetch;
    s.infl_commit.(tail) <- commit;
    s.infl_size.(tail) <- size;
    s.infl_len <- s.infl_len + 1;
    s.infl_insts <- s.infl_insts + size

let exit_kind (inst : Exec.instance) =
  match inst.Exec.exit_dest with
  | Isa.Xjump _ -> Blockpred.Kjump
  | Isa.Xcall _ -> Blockpred.Kcall
  | Isa.Xret -> Blockpred.Kret

(* Resolve the instance's exit against the shadow call stack and train
   the next-block predictor with it; returns the successor's id, or -1
   for a return with an empty shadow stack or a call to an unknown
   function.  Successors are plans resolved by [make_sim], so no label
   is hashed here.  Sampled simulation's functional warming calls this
   too, so the predictor sees the same training with or without the
   clock. *)
let resolve_exit s (plan : plan) (inst : Exec.instance) =
  let label_id = intern_plan s plan in
  let exits = plan.p_exits in
  let exit_idx =
    let rec find k =
      if k >= Array.length exits then
        invalid_arg
          (Printf.sprintf "Core: block %s exits at I%d, not a branch"
             plan.p_label inst.Exec.exit_inst)
      else if Array.unsafe_get exits k = inst.Exec.exit_inst then k
      else find (k + 1)
    in
    find 0
  in
  let next =
    match inst.Exec.exit_dest with
    | Isa.Xjump _ -> plan.p_next.(exit_idx)
    | Isa.Xcall _ ->
      (match plan.p_ret.(exit_idx) with
      | Some r -> s.shadow_stack <- r :: s.shadow_stack
      | None -> ());
      plan.p_next.(exit_idx)
    | Isa.Xret -> (
      match s.shadow_stack with
      | [] -> None
      | r :: rest ->
        s.shadow_stack <- rest;
        Some r)
  in
  match next with
  | None -> -1
  | Some target ->
    let target = intern_plan s target in
    let fall =
      match plan.p_ret.(exit_idx) with Some r -> intern_plan s r | None -> 0
    in
    Blockpred.update s.pred
      {
        Blockpred.o_block = label_id;
        o_exit = exit_idx;
        o_kind = exit_kind inst;
        o_target = target;
        o_fallthrough = fall;
      };
    target

(* Predict the instance's successor from its own block, then follow its
   exit ([resolve_exit]); true when the prediction names the successor.
   The static timing analyzer replays the predictor with this too. *)
let predict_exit s (plan : plan) (inst : Exec.instance) =
  let predicted = Blockpred.predict s.pred ~block:(intern_plan s plan) in
  let actual = resolve_exit s plan inst in
  match predicted with Some p -> actual >= 0 && p = actual | None -> false

(* One committed block instance: everything [run] does around the
   dataflow timing itself — fetch scheduling, I-cache, commit, register
   availability, next-block prediction, occupancy accounting.  [time]
   computes the dataflow portion. *)
type time_fn = sim -> plan -> Exec.instance -> dispatch_start:int -> btime

let step_instance s ~(time : time_fn) (plan : plan) (inst : Exec.instance) =
  let config = s.cfg in
  let n = plan.p_n in
    (* 1. fetch start *)
    let frame_limit =
      if s.seq >= config.window_blocks then
        s.commits.(s.seq mod config.window_blocks)
      else 0
    in
    let fetch =
      match s.prev with
      | None -> 0
      | Some p ->
        if p.p_correct then imax (p.p_fetch + config.fetch_interval) frame_limit
        else begin
          (match p.p_kind with
          | Blockpred.Kjump -> s.st.branch_mispredicts <- s.st.branch_mispredicts + 1
          | Blockpred.Kcall | Blockpred.Kret ->
            s.st.callret_mispredicts <- s.st.callret_mispredicts + 1);
          imax (p.p_resolve + config.redirect_penalty) frame_limit
        end
    in
    (* no message of this instance or a later one leaves before its
       fetch *)
    Opn.set_floor s.opn fetch;
    (* 2. instruction fetch *)
    let ilat = icache_fetch s ~addr:plan.p_addr ~bytes:plan.p_bytes ~now:fetch in
    (* 3. dataflow *)
    let bt = time s plan inst ~dispatch_start:(fetch + ilat) in
    (* 4. commit: the distributed protocol adds latency but is pipelined,
       not serializing (the paper found block commit off the critical
       path) *)
    let commit = imax (bt.bt_done + config.commit_overhead) (s.last_commit + 1) in
    s.last_commit <- commit;
    s.commits.(s.seq mod config.window_blocks) <- commit;
    s.seq <- s.seq + 1;
    (* register availability for later blocks; reverse append order so a
       register written twice keeps the first write, as the seed did *)
    let sc = s.scratch in
    for k = sc.w_cnt - 1 downto 0 do
      s.reg_ready.(sc.w_reg.(k)) <- sc.w_time.(k)
    done;
    (* 5. next-block prediction *)
    let correct = predict_exit s plan inst in
    s.prev <-
      Some { p_fetch = fetch; p_resolve = bt.bt_resolve; p_correct = correct;
             p_kind = exit_kind inst };
    (* 6. occupancy accounting *)
    s.st.blocks <- s.st.blocks + 1;
    let obs = plan.p_obs in
    obs.bo_instances <- obs.bo_instances + 1;
    obs.bo_latency <- obs.bo_latency + (bt.bt_done - (fetch + ilat));
    obs.bo_residency <- obs.bo_residency + (commit - fetch);
    let useful =
      let u = ref 0 in
      let fd = inst.Exec.fired and us = inst.Exec.useful in
      for i = 0 to Array.length fd - 1 do
        if Array.unsafe_get fd i && Array.unsafe_get us i then incr u
      done;
      !u
    in
    let residency = imax 1 (commit - fetch) in
    s.st.occupancy_weighted <- s.st.occupancy_weighted +. float_of_int (n * residency);
    s.st.occupancy_useful <- s.st.occupancy_useful +. float_of_int (useful * residency);
    infl_push s fetch commit n;
    if s.infl_insts > s.st.peak_occupancy then s.st.peak_occupancy <- s.infl_insts

(* Assemble the public result once execution finished. *)
let collect_result s (exec_result : Exec.result) =
  s.st.cycles <- max 1 s.last_commit;
  {
    ret = exec_result.Exec.ret;
    exec = exec_result.Exec.stats;
    timing = s.st;
    opn = Opn.profile s.opn;
    opn_average_hops = Opn.average_hops s.opn;
    block_profile =
      List.sort
        (fun (a, _) (b, _) -> compare a b)
        (Array.fold_left
           (fun acc (p : plan) ->
             if p.p_obs.bo_instances > 0 then (p.p_label, p.p_obs) :: acc else acc)
           [] s.plans);
  }

let interp_time : time_fn =
 fun s plan inst ~dispatch_start ->
  time_block s s.cfg plan inst ~dispatch_start

let drive ?fuel s ~(time : time_fn) (program : Block.program) image ~entry ~args =
  let on_instance (inst : Exec.instance) =
    step_instance s ~time s.plans.(inst.Exec.iindex) inst
  in
  let exec_result = Exec.run ?fuel ~on_instance program image ~entry ~args in
  collect_result s exec_result

let run ?config ?fuel (program : Block.program) image ~entry ~args =
  let s = make_sim ?config program in
  drive ?fuel s ~time:interp_time program image ~entry ~args

let ipc r =
  float_of_int r.exec.Exec.executed /. float_of_int (max 1 r.timing.cycles)

let useful_ipc r =
  float_of_int r.exec.Exec.useful /. float_of_int (max 1 r.timing.cycles)

let avg_window r = r.timing.occupancy_weighted /. float_of_int (max 1 r.timing.cycles)

let avg_window_useful r =
  r.timing.occupancy_useful /. float_of_int (max 1 r.timing.cycles)
