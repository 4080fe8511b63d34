module Ty = Trips_tir.Ty
module Ast = Trips_tir.Ast
module Risc = Trips_risc
module Tournament = Trips_predictor.Tournament
module Target = Trips_predictor.Target
module Cache = Trips_mem.Cache
module Hier = Trips_mem.Hier

type config = {
  name : string;
  width : int;
  rob : int;
  frontend : int;
  mispredict_penalty : int;
  predictor : Tournament.config;
  targets : Target.config;
  l1d : Cache.config;
  l1i : Cache.config;
  l2 : Cache.config option;
  dram : Hier.dram_config;
}

let cache name size_kb assoc hit_latency =
  { Cache.name; size_kb; assoc; line = 64; banks = 1; hit_latency; nuca_step = 0 }

(* Table 1: the Core 2 is under-clocked to match the TRIPS processor/memory
   speed ratio; the Pentium 4's high clock makes memory relatively far. *)
let core2 =
  {
    name = "Core 2";
    width = 4;
    rob = 96;
    frontend = 5;
    mispredict_penalty = 15;
    predictor = Tournament.alpha_like;
    targets = { Target.btb_entries = 2048; ctb_entries = 512; ras_depth = 16 };
    l1d = cache "C2.L1D" 32 8 3;
    l1i = cache "C2.L1I" 32 8 1;
    l2 = Some (cache "C2.L2" 2048 8 14);
    dram = { Hier.dram_latency = 130; bytes_per_cycle = 8.0 };
  }

let pentium4 =
  {
    name = "Pentium 4";
    width = 3;
    rob = 126;
    frontend = 10;
    mispredict_penalty = 30;
    predictor = Tournament.alpha_like;
    targets = { Target.btb_entries = 2048; ctb_entries = 256; ras_depth = 16 };
    l1d = cache "P4.L1D" 16 4 4;
    l1i = cache "P4.L1I" 16 4 1;     (* trace cache approximated *)
    l2 = Some (cache "P4.L2" 2048 8 24);
    dram = { Hier.dram_latency = 320; bytes_per_cycle = 4.0 };
  }

let pentium3 =
  {
    name = "Pentium III";
    width = 3;
    rob = 40;
    frontend = 4;
    mispredict_penalty = 11;
    predictor =
      { Tournament.local_entries = 512; local_hist_bits = 8; global_hist_bits = 10 };
    targets = { Target.btb_entries = 512; ctb_entries = 128; ras_depth = 8 };
    l1d = cache "P3.L1D" 16 4 3;
    l1i = cache "P3.L1I" 16 4 1;
    l2 = Some (cache "P3.L2" 512 8 10);
    dram = { Hier.dram_latency = 200; bytes_per_cycle = 3.0 };
  }

type stats = {
  mutable cycles : int;
  mutable instructions : int;
  mutable branch_mispredicts : int;
  mutable icache_misses : int;
  mutable dcache_misses : int;
  mutable flops : int;
}

type result = {
  ret_int : int64;
  ret_flt : float;
  stats : stats;
}

let op_latency (ins : Risc.Isa.ins) =
  match ins with
  | Risc.Isa.Op (op, _, _, _) | Risc.Isa.Opi (op, _, _, _) -> (
    match op with
    | Ast.Mul -> 3
    | Ast.Div | Ast.Rem -> 22
    | Ast.Fadd | Ast.Fsub -> 3
    | Ast.Fmul -> 5
    | Ast.Fdiv -> 20
    | _ -> 1)
  | Risc.Isa.Unop ((Ast.Itof | Ast.Ftoi), _, _) -> 4
  | _ -> 1

let run cfg (program : Risc.Isa.program) image ~entry ~args =
  let st =
    { cycles = 0; instructions = 0; branch_mispredicts = 0; icache_misses = 0;
      dcache_misses = 0; flops = 0 }
  in
  let bp = Tournament.create cfg.predictor in
  let tp = Target.create cfg.targets in
  let dhier = Hier.create ~l1:cfg.l1d ~l2:cfg.l2 ~dram:cfg.dram in
  let ihier = Hier.create ~l1:cfg.l1i ~l2:cfg.l2 ~dram:cfg.dram in
  (* dataflow state *)
  let reg_ready = Array.make 64 0 in
  let rob_commit = Array.make cfg.rob 0 in      (* ring of commit times *)
  let seq = ref 0 in
  let fetch_cycle = ref 0 in
  let fetch_in_cycle = ref 0 in
  let last_commit = ref 0 in
  let last_line = ref (-1) in
  let on_retire (r : Risc.Exec.retire) =
    st.instructions <- st.instructions + 1;
    (* 1. fetch: [width] per cycle, stalling on I-cache misses *)
    if !fetch_in_cycle >= cfg.width then begin
      incr fetch_cycle;
      fetch_in_cycle := 0
    end;
    let line = r.r_pc * 4 / 64 in
    if line <> !last_line then begin
      last_line := line;
      let lat, hit = Hier.access ihier ~addr:(r.r_pc * 4) ~write:false ~now:!fetch_cycle in
      if not hit then begin
        st.icache_misses <- st.icache_misses + 1;
        fetch_cycle := !fetch_cycle + lat;
        fetch_in_cycle := 0
      end
    end;
    (* 2. window: cannot enter until the instruction [rob] back committed *)
    let slot = !seq mod cfg.rob in
    if !seq >= cfg.rob && rob_commit.(slot) > !fetch_cycle then begin
      fetch_cycle := rob_commit.(slot);
      fetch_in_cycle := 0
    end;
    let fetch = !fetch_cycle in
    incr fetch_in_cycle;
    (* 3. issue and complete *)
    let ready =
      List.fold_left (fun acc s -> max acc reg_ready.(s)) (fetch + cfg.frontend) r.r_srcs
    in
    let complete =
      match r.r_mem with
      | Some (addr, _w, is_load) ->
        let lat, hit = Hier.access dhier ~addr ~write:(not is_load) ~now:ready in
        if not hit then st.dcache_misses <- st.dcache_misses + 1;
        if is_load then ready + lat else ready + 1
      | None -> ready + op_latency r.r_ins
    in
    (match r.r_dst with Some d -> reg_ready.(d) <- complete | None -> ());
    (match r.r_ins with
    | Risc.Isa.Op ((Ast.Fadd | Ast.Fsub | Ast.Fmul | Ast.Fdiv), _, _, _) ->
      st.flops <- st.flops + 1
    | _ -> ());
    (* 4. branches: predict and redirect *)
    (match (r.r_kind, r.r_branch) with
    | Risc.Exec.Kcond, Some (taken, target) ->
      let pred_dir = Tournament.predict bp ~pc:r.r_pc in
      let pred_tgt = Target.predict tp ~pc:r.r_pc Target.Jump in
      Tournament.update bp ~pc:r.r_pc ~taken;
      if taken then Target.update tp ~pc:r.r_pc Target.Jump ~target;
      let correct = pred_dir = taken && ((not taken) || pred_tgt = Some target) in
      if not correct then begin
        st.branch_mispredicts <- st.branch_mispredicts + 1;
        fetch_cycle := max !fetch_cycle (complete + cfg.mispredict_penalty);
        fetch_in_cycle := 0
      end
    | Risc.Exec.Kuncond, Some (_, target) ->
      (* taken-branch fetch bubble unless the BTB knows the target *)
      let pred_tgt = Target.predict tp ~pc:r.r_pc Target.Jump in
      Target.update tp ~pc:r.r_pc Target.Jump ~target;
      if pred_tgt <> Some target then begin
        fetch_cycle := !fetch_cycle + 1;
        fetch_in_cycle := 0
      end
    | Risc.Exec.Kcall, Some (_, target) ->
      let pred_tgt = Target.predict tp ~pc:r.r_pc Target.Call in
      Target.update tp ~pc:r.r_pc Target.Call ~target ~fallthrough:(r.r_pc + 1);
      if pred_tgt <> Some target then begin
        st.branch_mispredicts <- st.branch_mispredicts + 1;
        fetch_cycle := max !fetch_cycle (complete + cfg.mispredict_penalty);
        fetch_in_cycle := 0
      end
    | Risc.Exec.Kret, Some (_, target) ->
      let pred_tgt = Target.predict tp ~pc:r.r_pc Target.Ret in
      Target.update tp ~pc:r.r_pc Target.Ret ~target;
      if pred_tgt <> Some target then begin
        st.branch_mispredicts <- st.branch_mispredicts + 1;
        fetch_cycle := max !fetch_cycle (complete + cfg.mispredict_penalty);
        fetch_in_cycle := 0
      end
    | _ -> ());
    (* 5. in-order commit, [width] per cycle *)
    let commit =
      let w = if !seq >= cfg.width then rob_commit.((!seq - cfg.width) mod cfg.rob) + 1 else 0 in
      max (max complete !last_commit) w
    in
    last_commit := commit;
    rob_commit.(slot) <- commit;
    incr seq
  in
  let r = Risc.Exec.run program image ~entry ~args ~on_retire in
  st.cycles <- max 1 !last_commit;
  { ret_int = r.Risc.Exec.ret_int; ret_flt = r.Risc.Exec.ret_flt; stats = st }

let ipc r = float_of_int r.stats.instructions /. float_of_int (max 1 r.stats.cycles)
