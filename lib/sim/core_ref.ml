(* Frozen copy of the pre-optimization simulator (see core_ref.mli).
   Kept verbatim apart from its record types, which are [Core]'s — the
   parity suite and `trips_run simbench` depend on this module continuing
   to produce the seed's exact statistics. *)

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
module Schedule = Trips_compiler.Schedule

(* Compressed code footprint of a block: a 128-byte header plus 128-byte
   chunks of 32 instructions (§4.4). *)
let block_bytes n_insts = 128 + (128 * ((max 1 n_insts + 31) / 32))

type sim = {
  cfg : Core.config;
  pred : Blockpred.t;
  dep : Depend.t;
  opn : Opn.t;
  l1d : Cache.t;
  l1i : Cache.t;
  l2 : Cache.t;
  mutable dram_free_at : int;
  st : Core.stats;
  (* label interning and code layout *)
  ids : (string, int) Hashtbl.t;
  code_addr : (string, int) Hashtbl.t;
  func_entry : (string, string) Hashtbl.t;    (* function -> entry label *)
  mutable reg_ready : int array;              (* RT value availability *)
  mutable shadow_stack : string list;         (* return labels *)
  (* previous block bookkeeping *)
  mutable prev : prev option;
  mutable last_commit : int;
  mutable commits : int array;                (* ring of commit times *)
  mutable seq : int;
  mutable inflight : (int * int * int * int) list; (* fetch, commit, size, useful *)
}

and prev = {
  p_fetch : int;
  p_resolve : int;
  p_correct : bool;
  p_kind : Blockpred.kind;
}

let intern s label =
  match Hashtbl.find_opt s.ids label with
  | Some i -> i
  | None ->
    let i = Hashtbl.length s.ids + 1 in
    Hashtbl.replace s.ids label i;
    i

let dram_latency s ~now =
  let line = s.cfg.l2.Cache.line in
  let occupancy =
    int_of_float (ceil (float_of_int line /. s.cfg.dram.Hier.bytes_per_cycle))
  in
  let start = max now s.dram_free_at in
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

type mem_timing = {
  mt_lsid : int;
  mt_is_load : bool;
  mt_addr : int;
  mt_width : int;
  mt_null : bool;
  mt_time : int;              (* arrival at the data tile *)
}

(* Result of timing one block instance. *)
type btime = {
  bt_resolve : int;           (* branch resolution at the GT *)
  bt_done : int;              (* all outputs produced *)
  bt_writes : (int * int) list; (* arch reg, availability at RT *)
  bt_flushed : bool;
}

let time_block s (cfg : Core.config) (inst : Exec.instance) ~dispatch_start : btime =
  let b = inst.Exec.iblock in
  let n = Array.length b.Block.insts in
  let fired = inst.Exec.fired in
  let pos i = Schedule.tile_position b.Block.placement.(i) in
  (* instructions dispatch progressively, [dispatch_rate] per cycle in slot
     order; the header's read/write slots dispatch first *)
  let dispatched i = dispatch_start + 1 + (i / cfg.dispatch_rate) in
  let dispatch_done = dispatch_start + 1 + ((max 1 n - 1) / cfg.dispatch_rate) in
  ignore dispatch_done;
  (* operand slot arrival times *)
  let ready = Array.make n [] in      (* arrival times of arrived slots *)
  let needed = Array.make n 0 in
  Array.iteri
    (fun i ins ->
      if fired.(i) then begin
        needed.(i) <- Isa.operand_arity ins
                      + (match ins.Isa.pred with Isa.Unpred -> 0 | _ -> 1)
      end)
    b.Block.insts;
  let complete = Array.make n (-1) in
  let et_free = Array.make 16 0 in
  let dt_free = Array.make 4 0 in
  (* min-heap on readiness time: processing instructions in time order keeps
     operand-network link reservations chronological, so contention reflects
     genuine overlap rather than processing order *)
  let heap = ref [] in
  let heap_push t i = heap := (t, i) :: !heap in
  let heap_pop () =
    match !heap with
    | [] -> None
    | first :: rest ->
      let best =
        List.fold_left (fun acc x -> if fst x < fst acc then x else acc) first rest
      in
      heap := List.filter (fun x -> x != best) !heap;
      Some (snd best)
  in
  let writes = ref [] in
  let resolve = ref (dispatch_start + 1) in
  let mems = ref [] in
  (* loads deferred by the load-wait table wait for earlier stores *)
  let store_times = Hashtbl.create 8 in   (* lsid -> dt arrival *)
  let arrive j t =
    if fired.(j) then begin
      ready.(j) <- t :: ready.(j);
      if List.length ready.(j) = needed.(j) then
        heap_push (List.fold_left max (dispatched j) ready.(j)) j
    end
  in
  (* memory-event lookup for fired loads/stores *)
  let mem_of = Hashtbl.create 8 in
  List.iter
    (fun (ev : Exec.mem_event) -> Hashtbl.replace mem_of ev.Exec.ev_inst ev)
    inst.Exec.mem_events;
  let deliver_targets i completion =
    let src_pos = pos i in
    let is_load = match b.Block.insts.(i).Isa.op with Isa.Load _ -> true | _ -> false in
    List.iter
      (fun tgt ->
        match tgt with
        | Isa.To_inst (j, _) ->
          let cls = if is_load then Opn.Dt_et else Opn.Et_et in
          let src = if is_load then
              (match Hashtbl.find_opt mem_of i with
               | Some ev -> Schedule.dt_position (Cache.bank_of s.l1d ~addr:ev.Exec.ev_addr)
               | None -> src_pos)
            else src_pos
          in
          let t = Opn.send s.opn ~src ~dst:(pos j) cls ~now:completion in
          arrive j t
        | Isa.To_write w ->
          let reg = b.Block.writes.(w).Block.wreg in
          let t =
            Opn.send s.opn ~src:src_pos ~dst:(Schedule.rt_position reg) Opn.Et_rt
              ~now:completion
          in
          writes := (reg, t) :: !writes)
      b.Block.insts.(i).Isa.targets
  in
  (* inject reads *)
  Array.iter
    (fun (r : Block.read) ->
      let avail = max dispatch_done s.reg_ready.(r.Block.rreg) in
      List.iter
        (fun tgt ->
          match tgt with
          | Isa.To_inst (j, _) ->
            let t =
              Opn.send s.opn ~src:(Schedule.rt_position r.Block.rreg) ~dst:(pos j)
                Opn.Rt_et ~now:avail
            in
            arrive j t
          | Isa.To_write w ->
            let reg = b.Block.writes.(w).Block.wreg in
            writes := (reg, avail) :: !writes)
        r.Block.rtargets)
    b.Block.reads;
  (* zero-operand fired instructions are ready once dispatched *)
  Array.iteri
    (fun i _ -> if fired.(i) && needed.(i) = 0 then heap_push (dispatched i) i)
    b.Block.insts;
  let continue_ = ref true in
  while !continue_ do
    match heap_pop () with
    | None -> continue_ := false
    | Some i ->
    if complete.(i) < 0 then begin
      let ins = b.Block.insts.(i) in
      let operand_ready = List.fold_left max (dispatched i) ready.(i) in
      let tile = b.Block.placement.(i) in
      let issue = max operand_ready et_free.(tile) in
      et_free.(tile) <- issue + 1;
      match ins.Isa.op with
      | Isa.Load (_, _, lsid) -> (
        match Hashtbl.find_opt mem_of i with
        | None -> complete.(i) <- issue + Isa.latency ins.Isa.op (* squashed, defensive *)
        | Some ev ->
          let addr = ev.Exec.ev_addr in
          let bank = Cache.bank_of s.l1d ~addr in
          (* predicted-dependent loads wait for all earlier stores *)
          let wait =
            if Depend.should_wait s.dep ~load_id:(Hashtbl.hash (b.Block.label, i))
            then
              Hashtbl.fold
                (fun l t acc -> if l < lsid then max acc t else acc)
                store_times issue
            else issue
          in
          let at_dt =
            Opn.send s.opn ~src:(pos i) ~dst:(Schedule.dt_position bank) Opn.Et_dt
              ~now:wait
          in
          let start = max at_dt dt_free.(bank) in
          dt_free.(bank) <- start + 1;
          s.st.l1d_bytes <- s.st.l1d_bytes + Ty.bytes_of_width ev.Exec.ev_width;
          let lat =
            if Cache.access s.l1d ~addr ~write:false then
              Cache.hit_latency_of_bank s.l1d bank
            else begin
              s.st.dcache_misses <- s.st.dcache_misses + 1;
              (Cache.config s.l1d).Cache.hit_latency + l2_access s ~addr ~write:false ~now:start
            end
          in
          let data_ready = start + lat in
          complete.(i) <- data_ready;
          mems :=
            { mt_lsid = lsid; mt_is_load = true; mt_addr = addr;
              mt_width = Ty.bytes_of_width ev.Exec.ev_width; mt_null = false;
              mt_time = start }
            :: !mems;
          deliver_targets i data_ready)
      | Isa.Store (_, lsid) ->
        let ev = Hashtbl.find_opt mem_of i in
        let addr, width, is_null =
          match ev with
          | Some ev -> (ev.Exec.ev_addr, Ty.bytes_of_width ev.Exec.ev_width, ev.Exec.ev_null)
          | None -> (0, 0, true)
        in
        let bank = if is_null then lsid land 3 else Cache.bank_of s.l1d ~addr in
        let at_dt =
          Opn.send s.opn ~src:(pos i) ~dst:(Schedule.dt_position bank) Opn.Et_dt
            ~now:(issue + Isa.latency ins.Isa.op)
        in
        let start = max at_dt dt_free.(bank) in
        dt_free.(bank) <- start + 1;
        if not is_null then begin
          s.st.l1d_bytes <- s.st.l1d_bytes + width;
          if not (Cache.access s.l1d ~addr ~write:true) then begin
            s.st.dcache_misses <- s.st.dcache_misses + 1;
            ignore (l2_access s ~addr ~write:true ~now:start)
          end
        end;
        complete.(i) <- start;
        Hashtbl.replace store_times lsid start;
        mems :=
          { mt_lsid = lsid; mt_is_load = false; mt_addr = addr; mt_width = width;
            mt_null = is_null; mt_time = start }
          :: !mems
      | Isa.Branch _ ->
        let done_t = issue + Isa.latency ins.Isa.op in
        complete.(i) <- done_t;
        let t =
          Opn.send s.opn ~src:(pos i) ~dst:Schedule.gt_position Opn.Et_gt ~now:done_t
        in
        if i = inst.Exec.exit_inst then resolve := max !resolve t
      | op ->
        let done_t = issue + Isa.latency op in
        complete.(i) <- done_t;
        deliver_targets i done_t
    end
  done;
  (* store-load violations: a load that accessed the DT before an earlier
     (lower-LSID) overlapping store arrived *)
  let flushed = ref false in
  let mems_l = !mems in
  List.iter
    (fun load ->
      if load.mt_is_load then
        List.iter
          (fun st ->
            if
              (not st.mt_is_load) && (not st.mt_null)
              && st.mt_lsid < load.mt_lsid
              && st.mt_time > load.mt_time
              && st.mt_addr < load.mt_addr + load.mt_width
              && load.mt_addr < st.mt_addr + st.mt_width
            then begin
              flushed := true;
              (* learn: next time this load waits *)
              Depend.record_violation s.dep
                ~load_id:(Hashtbl.hash (b.Block.label, load.mt_lsid))
            end)
          mems_l)
    mems_l;
  if !flushed then s.st.load_flushes <- s.st.load_flushes + 1;
  let all_done =
    List.fold_left
      (fun acc (_, t) -> max acc t)
      (List.fold_left (fun acc m -> max acc m.mt_time) !resolve mems_l)
      !writes
  in
  let all_done = if !flushed then all_done + cfg.flush_penalty else all_done in
  {
    bt_resolve = max !resolve (if !flushed then all_done else !resolve);
    bt_done = all_done;
    bt_writes = !writes;
    bt_flushed = !flushed;
  }

(* ------------------------------------------------------------------ *)
(* Whole-program simulation                                            *)
(* ------------------------------------------------------------------ *)

let empty_stats () : Core.stats =
  {
    cycles = 0; blocks = 0; branch_mispredicts = 0; callret_mispredicts = 0;
    load_flushes = 0; icache_misses = 0; dcache_misses = 0; l2_misses = 0;
    occupancy_weighted = 0.; occupancy_useful = 0.; peak_occupancy = 0;
    l1d_bytes = 0; l2_bytes = 0; dram_bytes = 0;
  }

let run ?(config = Core.prototype) ?fuel (program : Block.program) image ~entry ~args =
  let s =
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
      ids = Hashtbl.create 128;
      code_addr = Hashtbl.create 128;
      func_entry = Hashtbl.create 16;
      reg_ready = Array.make Isa.num_regs 0;
      shadow_stack = [];
      prev = None;
      last_commit = 0;
      commits = Array.make config.window_blocks 0;
      seq = 0;
      inflight = [];
    }
  in
  let block_profile : (string, Core.block_obs) Hashtbl.t = Hashtbl.create 64 in
  (* code layout in a dedicated text region *)
  let cursor = ref 0x4000000 in
  List.iter
    (fun (f : Block.func) ->
      Hashtbl.replace s.func_entry f.Block.fname f.Block.entry;
      List.iter
        (fun (b : Block.t) ->
          Hashtbl.replace s.code_addr b.Block.label !cursor;
          cursor := !cursor + block_bytes (Array.length b.Block.insts))
        f.Block.blocks)
    program.Block.funcs;
  let on_instance (inst : Exec.instance) =
    let b = inst.Exec.iblock in
    let label = b.Block.label in
    let label_id = intern s label in
    let n = Array.length b.Block.insts in
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
        if p.p_correct then max (p.p_fetch + config.fetch_interval) frame_limit
        else begin
          (match p.p_kind with
          | Blockpred.Kjump -> s.st.branch_mispredicts <- s.st.branch_mispredicts + 1
          | Blockpred.Kcall | Blockpred.Kret ->
            s.st.callret_mispredicts <- s.st.callret_mispredicts + 1);
          max (p.p_resolve + config.redirect_penalty) frame_limit
        end
    in
    (* 2. instruction fetch *)
    let addr = Hashtbl.find s.code_addr label in
    let ilat = icache_fetch s ~addr ~bytes:(block_bytes n) ~now:fetch in
    (* 3. dataflow *)
    let bt = time_block s config inst ~dispatch_start:(fetch + ilat) in
    (* 4. commit: the distributed protocol adds latency but is pipelined,
       not serializing (the paper found block commit off the critical
       path) *)
    let commit = max (bt.bt_done + config.commit_overhead) (s.last_commit + 1) in
    s.last_commit <- commit;
    s.commits.(s.seq mod config.window_blocks) <- commit;
    s.seq <- s.seq + 1;
    (* register availability for later blocks *)
    List.iter (fun (reg, t) -> s.reg_ready.(reg) <- t) bt.bt_writes;
    (* 5. next-block prediction *)
    let actual_label, kind =
      match inst.Exec.exit_dest with
      | Isa.Xjump l -> (Some l, Blockpred.Kjump)
      | Isa.Xcall (fname, retl) ->
        s.shadow_stack <- retl :: s.shadow_stack;
        (Hashtbl.find_opt s.func_entry fname, Blockpred.Kcall)
      | Isa.Xret -> (
        match s.shadow_stack with
        | [] -> (None, Blockpred.Kret)
        | retl :: rest ->
          s.shadow_stack <- rest;
          (Some retl, Blockpred.Kret))
    in
    let actual_id = Option.map (intern s) actual_label in
    let predicted = Blockpred.predict s.pred ~block:label_id in
    let correct = actual_id <> None && predicted = actual_id in
    (match actual_id with
    | Some target ->
      let exits = Block.exits b in
      let exit_idx =
        match
          List.find_index (fun (i, _) -> i = inst.Exec.exit_inst) exits
        with
        | Some k -> k
        | None -> 0
      in
      let fall =
        match inst.Exec.exit_dest with
        | Isa.Xcall (_, retl) -> intern s retl
        | _ -> 0
      in
      Blockpred.update s.pred
        {
          Blockpred.o_block = label_id;
          o_exit = exit_idx;
          o_kind = kind;
          o_target = target;
          o_fallthrough = fall;
        }
    | None -> ());
    s.prev <-
      Some { p_fetch = fetch; p_resolve = bt.bt_resolve; p_correct = correct;
             p_kind = kind };
    (* 6. occupancy accounting *)
    s.st.blocks <- s.st.blocks + 1;
    (let obs =
       match Hashtbl.find_opt block_profile label with
       | Some o -> o
       | None ->
         let o = { Core.bo_instances = 0; bo_latency = 0; bo_residency = 0 } in
         Hashtbl.replace block_profile label o;
         o
     in
     obs.bo_instances <- obs.bo_instances + 1;
     obs.bo_latency <- obs.bo_latency + (bt.bt_done - (fetch + ilat));
     obs.bo_residency <- obs.bo_residency + (commit - fetch));
    let useful =
      let u = ref 0 in
      Array.iteri (fun i f -> if f && inst.Exec.useful.(i) then incr u) inst.Exec.fired;
      !u
    in
    let residency = max 1 (commit - fetch) in
    s.st.occupancy_weighted <- s.st.occupancy_weighted +. float_of_int (n * residency);
    s.st.occupancy_useful <- s.st.occupancy_useful +. float_of_int (useful * residency);
    s.inflight <-
      (fetch, commit, n, useful)
      :: List.filter (fun (_, c, _, _) -> c > fetch) s.inflight;
    let concurrent = List.fold_left (fun acc (_, _, sz, _) -> acc + sz) 0 s.inflight in
    if concurrent > s.st.peak_occupancy then s.st.peak_occupancy <- concurrent
  in
  let exec_result = Exec.run ?fuel ~on_instance program image ~entry ~args in
  s.st.cycles <- max 1 s.last_commit;
  {
    Core.ret = exec_result.Exec.ret;
    exec = exec_result.Exec.stats;
    timing = s.st;
    opn = Opn.profile s.opn;
    opn_average_hops = Opn.average_hops s.opn;
    block_profile =
      List.sort
        (fun (a, _) (b, _) -> compare a b)
        (Hashtbl.fold (fun l o acc -> (l, o) :: acc) block_profile []);
  }
