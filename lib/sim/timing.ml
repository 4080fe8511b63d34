(* Static critical-path timing analysis of scheduled EDGE blocks.

   The model is the optimistic core of the cycle-level simulator
   ([Core.time_block]), with its parameters read from the same
   [Core.config]: progressive dispatch, dataflow issue, per-opcode
   latencies from Isa.latency, operand-network hop costs as Manhattan
   distance on the Isa mesh geometry, cache-hit memory latency — but no
   link contention, no tile issue serialization, no cache misses and no
   load-wait serialization, so on an unpredicated block the prediction
   is a lower bound on the simulator.

   Every block is summarized as a max-plus system: each output (write
   slot availability at its RT, memory completion at the DTs, branch
   resolution at the GT) is the max of a constant lag from dispatch and,
   for each read slot, a lag from that register's availability.  The
   summaries compose over a dynamic block trace (see [step] and
   [predict_program]), which predicts whole-program cycles without
   running the cycle-level simulator. *)

module Isa = Trips_edge.Isa
module Block = Trips_edge.Block
module Exec = Trips_edge.Exec
module Cache = Trips_mem.Cache
module Opn = Trips_noc.Opn
module Diag = Trips_analysis.Diag

(* Sentinel for "unreachable from this source"; far enough from min_int
   that adding lags cannot wrap. *)
let neg = min_int / 4

type breakdown = {
  bk_compute : int;            (* execution latency on the critical path *)
  bk_route : int;              (* OPN hop cycles on the critical path *)
  bk_memory : int;             (* D-cache pipeline cycles on the path *)
  bk_overhead : int;           (* dispatch waits on the critical path *)
}

type summary = {
  s_label : string;
  s_n : int;
  s_crit : int;                (* critical path, relative to dispatch start *)
  s_completion : int array;    (* per-inst earliest completion (base scenario) *)
  s_slack : int array;         (* per-inst slack against s_crit *)
  s_breakdown : breakdown;     (* decomposition of s_crit *)
  s_tile_load : int array;     (* instructions placed per ET *)
  s_link_max : int;            (* static messages on the busiest OPN link *)
  s_contention_est : int;      (* advisory: link load exceeding the path span *)
  s_pred_depth : int;          (* deepest chain of dependent predicates *)
  (* max-plus composition rows (all lags relative to dispatch start;
     [neg] = no path) *)
  s_reads : int array;         (* read slot -> architectural register *)
  s_writes : int array;        (* write slot -> architectural register *)
  s_exit_insts : int array;    (* branch instruction index per exit, in
                                  Block.exits order *)
  s_dispatch_done : int;       (* last dispatch slot (read availability floor) *)
  s_base_write : int array;    (* write slot lag from dispatch *)
  s_base_mem : int;            (* store/load DT completion lag from dispatch *)
  s_base_resolve : int array;  (* per-exit GT resolution lag from dispatch *)
  s_read_write : int array array;   (* read k -> write slot lags *)
  s_read_mem : int array;           (* read k -> DT completion lag *)
  s_read_resolve : int array array; (* read k -> per-exit resolution lag *)
}

(* ------------------------------------------------------------------ *)
(* Mesh helpers                                                        *)
(* ------------------------------------------------------------------ *)

(* The D-cache bank of a load/store is an address property the static
   analyzer cannot know; the nearest bank keeps the estimate a lower
   bound. *)
let argmin_dt_bank pos =
  let best = ref 0 in
  for b = 1 to Isa.num_dt_banks - 1 do
    if
      Isa.mesh_dist pos (Isa.dt_position b)
      < Isa.mesh_dist pos (Isa.dt_position !best)
    then best := b
  done;
  !best

let min_dt_hops pos = Isa.mesh_dist pos (Isa.dt_position (argmin_dt_bank pos))

(* ------------------------------------------------------------------ *)
(* Per-block analysis                                                  *)
(* ------------------------------------------------------------------ *)

(* Provenance of the binding term at each max, for critical-path
   extraction on the dispatch-source scenario. *)
type prov =
  | Pnone
  | Pdispatch                       (* the 16-wide dispatch slot bound *)
  | Pread of int * int              (* read slot, route hops *)
  | Pinst of int * int              (* producer instruction, route hops *)

let degenerate ~label n =
  {
    s_label = label;
    s_n = n;
    s_crit = 0;
    s_completion = Array.make n 0;
    s_slack = Array.make n 0;
    s_breakdown = { bk_compute = 0; bk_route = 0; bk_memory = 0; bk_overhead = 0 };
    s_tile_load = Array.make Isa.num_ets 0;
    s_link_max = 0;
    s_contention_est = 0;
    s_pred_depth = 0;
    s_reads = [||];
    s_writes = [||];
    s_exit_insts = [||];
    s_dispatch_done = 1;
    s_base_write = [||];
    s_base_mem = neg;
    s_base_resolve = [||];
    s_read_write = [||];
    s_read_mem = [||];
    s_read_resolve = [||];
  }

let analyze_block ~fname (b : Block.t) : summary * Diag.t list =
  let config = Core.prototype in
  let l1d_hit = config.Core.l1d.Cache.hit_latency in
  let n = Array.length b.Block.insts in
  let nr = Array.length b.Block.reads in
  let nw = Array.length b.Block.writes in
  let label = b.Block.label in
  let diags = ref [] in
  let emit ?inst ?fix ?(sev = Diag.Warning) cls msg =
    diags := Diag.make ~sev ~pass:"timing" ~fname ~block:label ?inst ?fix cls msg :: !diags
  in
  let exits = Block.exits b in
  let exit_insts = Array.of_list (List.map fst exits) in
  let ne = Array.length exit_insts in
  let placed =
    Array.length b.Block.placement = n
    && Array.for_all (fun et -> et >= 0 && et < Isa.num_ets) b.Block.placement
  in
  if not placed then begin
    emit "timing-skipped" "block has no valid placement; timing not computed"
      ~fix:"run the scheduler (Schedule.place) before timing analysis";
    ({ (degenerate ~label n) with s_exit_insts = exit_insts }, List.rev !diags)
  end
  else begin
    let pos i = Isa.tile_position b.Block.placement.(i) in
    let dispatched i = 1 + (i / config.Core.dispatch_rate) in
    let dispatch_done = 1 + ((max 1 n - 1) / config.Core.dispatch_rate) in
    (* topological order over To_inst edges *)
    let indeg = Array.make n 0 in
    let succs = Array.make n [] in
    Array.iteri
      (fun i (ins : Isa.inst) ->
        List.iter
          (function
            | Isa.To_inst (j, _) when j >= 0 && j < n ->
              succs.(i) <- j :: succs.(i);
              indeg.(j) <- indeg.(j) + 1
            | _ -> ())
          ins.Isa.targets)
      b.Block.insts;
    let order = Queue.create () in
    Array.iteri (fun i d -> if d = 0 then Queue.push i order) indeg;
    let topo = Array.make n (-1) in
    let filled = ref 0 in
    let indeg' = Array.copy indeg in
    while not (Queue.is_empty order) do
      let i = Queue.pop order in
      topo.(!filled) <- i;
      incr filled;
      List.iter
        (fun j ->
          indeg'.(j) <- indeg'.(j) - 1;
          if indeg'.(j) = 0 then Queue.push j order)
        succs.(i)
    done;
    if !filled <> n then begin
      emit "timing-skipped" ~sev:Diag.Error
        "dataflow graph is cyclic; timing not computed"
        ~fix:"fix the block (see the structure/paths passes)";
      ({ (degenerate ~label n) with s_exit_insts = exit_insts }, List.rev !diags)
    end
    else begin
      let ns = 1 + nr in (* sources: 0 = dispatch, 1+k = read slot k *)
      let arrival = Array.make_matrix ns n neg in
      let comp = Array.make_matrix ns n neg in
      let arrival_prov = Array.make n Pnone in      (* base scenario only *)
      let write_time = Array.make_matrix ns (max nw 1) neg in
      let write_prov = Array.make (max nw 1) Pnone in
      let mem_out = Array.make ns neg in
      let mem_prov = ref Pnone in
      let resolve = Array.make_matrix ns (max ne 1) neg in
      (* static link loads *)
      let link_load = Array.make (5 * 5 * 4) 0 in
      let add_route src dst =
        List.iter
          (fun id -> link_load.(id) <- link_load.(id) + 1)
          (Opn.path_ids ~src ~dst)
      in
      let bump_arrival s j t p =
        if t > arrival.(s).(j) then begin
          arrival.(s).(j) <- t;
          if s = 0 then arrival_prov.(j) <- p
        end
      in
      let bump_write s w t p =
        if t > write_time.(s).(w) then begin
          write_time.(s).(w) <- t;
          if s = 0 then write_prov.(w) <- p
        end
      in
      (* read injections: available at max(dispatch done, register ready);
         the dispatch-source row models the former, the read-source row the
         latter.  A read targeting a write slot forwards directly (no OPN
         leg), as in the simulator. *)
      Array.iteri
        (fun k (r : Block.read) ->
          let rp = Isa.rt_position r.Block.rreg in
          List.iter
            (function
              | Isa.To_inst (j, _) when j >= 0 && j < n ->
                let h = Isa.mesh_dist rp (pos j) in
                add_route rp (pos j);
                bump_arrival 0 j (dispatch_done + h) (Pread (k, h));
                bump_arrival (1 + k) j h Pnone
              | Isa.To_write w when w >= 0 && w < nw ->
                bump_write 0 w dispatch_done (Pread (k, 0));
                bump_write (1 + k) w 0 Pnone
              | _ -> ())
            r.Block.rtargets)
        b.Block.reads;
      (* forward pass in topological order *)
      let lat i = Isa.latency b.Block.insts.(i).Isa.op in
      Array.iter
        (fun i ->
          let ins = b.Block.insts.(i) in
          let p = pos i in
          (* readiness per source; the dispatch slot clamps the base row *)
          let ready0 =
            let a = arrival.(0).(i) in
            if a >= dispatched i then a
            else begin
              arrival_prov.(i) <- Pdispatch;
              dispatched i
            end
          in
          for s = 0 to ns - 1 do
            let ready = if s = 0 then ready0 else arrival.(s).(i) in
            if ready > neg then begin
              match ins.Isa.op with
              | Isa.Load _ ->
                let d1 = min_dt_hops p in
                (* request reaches the DT: a block output (LSID completion) *)
                let t_dt = ready + d1 in
                if t_dt > mem_out.(s) then begin
                  mem_out.(s) <- t_dt;
                  if s = 0 then mem_prov := Pinst (i, 0)
                end;
                comp.(s).(i) <- t_dt + l1d_hit
              | Isa.Store _ ->
                let d1 = min_dt_hops p in
                let t_dt = ready + lat i + d1 in
                if t_dt > mem_out.(s) then begin
                  mem_out.(s) <- t_dt;
                  if s = 0 then mem_prov := Pinst (i, 0)
                end;
                comp.(s).(i) <- t_dt
              | Isa.Branch _ ->
                let done_t = ready + lat i in
                comp.(s).(i) <- done_t;
                let t = done_t + Isa.mesh_dist p Isa.gt_position in
                (match
                   Array.to_seqi exit_insts
                   |> Seq.find (fun (_, bi) -> bi = i)
                 with
                | Some (e, _) ->
                  if t > resolve.(s).(e) then resolve.(s).(e) <- t
                | None -> ())
              | _ -> comp.(s).(i) <- ready + lat i
            end
          done;
          (* static routes and delivery edges *)
          (match ins.Isa.op with
          | Isa.Load _ ->
            add_route p (Isa.dt_position (argmin_dt_bank p));
            List.iter
              (function
                | Isa.To_inst (j, _) when j >= 0 && j < n ->
                  (* data returns from the DT, not the load's ET *)
                  let dt = Isa.dt_position (argmin_dt_bank (pos j)) in
                  let dtj = Isa.mesh_dist dt (pos j) in
                  add_route dt (pos j);
                  for s = 0 to ns - 1 do
                    if comp.(s).(i) > neg then
                      bump_arrival s j (comp.(s).(i) + dtj) (Pinst (i, dtj))
                  done
                | Isa.To_write w when w >= 0 && w < nw ->
                  let rp = Isa.rt_position b.Block.writes.(w).Block.wreg in
                  let h = Isa.mesh_dist p rp in
                  add_route p rp;
                  for s = 0 to ns - 1 do
                    if comp.(s).(i) > neg then
                      bump_write s w (comp.(s).(i) + h) (Pinst (i, h))
                  done
                | _ -> ())
              ins.Isa.targets
          | Isa.Store _ -> add_route p (Isa.dt_position (argmin_dt_bank p))
          | Isa.Branch _ -> add_route p Isa.gt_position
          | _ ->
            List.iter
              (function
                | Isa.To_inst (j, _) when j >= 0 && j < n ->
                  let h = Isa.mesh_dist p (pos j) in
                  add_route p (pos j);
                  for s = 0 to ns - 1 do
                    if comp.(s).(i) > neg then
                      bump_arrival s j (comp.(s).(i) + h) (Pinst (i, h))
                  done
                | Isa.To_write w when w >= 0 && w < nw ->
                  let rp = Isa.rt_position b.Block.writes.(w).Block.wreg in
                  let h = Isa.mesh_dist p rp in
                  add_route p rp;
                  for s = 0 to ns - 1 do
                    if comp.(s).(i) > neg then
                      bump_write s w (comp.(s).(i) + h) (Pinst (i, h))
                  done
                | _ -> ())
              ins.Isa.targets))
        topo;
      (* base outputs and the critical path *)
      let resolve_floor = 1 in
      let base_resolve =
        Array.init ne (fun e -> max resolve_floor resolve.(0).(e))
      in
      let best_write = ref neg and best_w = ref (-1) in
      for w = 0 to nw - 1 do
        if write_time.(0).(w) > !best_write then begin
          best_write := write_time.(0).(w);
          best_w := w
        end
      done;
      let best_resolve = Array.fold_left max neg base_resolve in
      let crit = max (max !best_write mem_out.(0)) (max best_resolve 0) in
      (* breakdown: walk the binding chain of the critical output *)
      let bk_compute = ref 0 and bk_route = ref 0 in
      let bk_memory = ref 0 and bk_overhead = ref 0 in
      let rec walk_node i =
        (match b.Block.insts.(i).Isa.op with
        | Isa.Load _ ->
          bk_route := !bk_route + min_dt_hops (pos i);
          bk_memory := !bk_memory + l1d_hit
        | Isa.Store _ ->
          bk_route := !bk_route + min_dt_hops (pos i);
          bk_compute := !bk_compute + lat i
        | _ -> bk_compute := !bk_compute + lat i);
        match arrival_prov.(i) with
        | Pdispatch | Pnone -> bk_overhead := !bk_overhead + dispatched i
        | Pread (_, h) ->
          bk_route := !bk_route + h;
          bk_overhead := !bk_overhead + dispatch_done
        | Pinst (j, h) ->
          bk_route := !bk_route + h;
          walk_node j
      in
      let walk_output = function
        | Pnone | Pdispatch -> bk_overhead := !bk_overhead + crit
        | Pread (_, h) ->
          bk_route := !bk_route + h;
          bk_overhead := !bk_overhead + dispatch_done
        | Pinst (i, h) ->
          bk_route := !bk_route + h;
          walk_node i
      in
      (if crit = !best_write && !best_w >= 0 then walk_output write_prov.(!best_w)
       else if crit = mem_out.(0) then walk_output !mem_prov
       else if crit = best_resolve then begin
         (* find the binding exit branch *)
         let e = ref (-1) in
         Array.iteri (fun k t -> if t = best_resolve && !e < 0 then e := k) base_resolve;
         if !e >= 0 && resolve.(0).(!e) = best_resolve then begin
           let i = exit_insts.(!e) in
           bk_route := !bk_route + Isa.mesh_dist (pos i) Isa.gt_position;
           walk_node i
         end
         else bk_overhead := !bk_overhead + crit (* resolve floor *)
       end
       else bk_overhead := !bk_overhead + crit);
      let breakdown =
        {
          bk_compute = !bk_compute;
          bk_route = !bk_route;
          bk_memory = !bk_memory;
          bk_overhead = !bk_overhead;
        }
      in
      (* per-instruction slack: longest remaining path from issue *)
      let tail = Array.make n 0 in
      for k = n - 1 downto 0 do
        let i = topo.(k) in
        let ins = b.Block.insts.(i) in
        let p = pos i in
        let t =
          match ins.Isa.op with
          | Isa.Load _ ->
            let d1 = min_dt_hops p in
            List.fold_left
              (fun acc -> function
                | Isa.To_inst (j, _) when j >= 0 && j < n ->
                  max acc (d1 + l1d_hit + min_dt_hops (pos j) + tail.(j))
                | Isa.To_write w when w >= 0 && w < nw ->
                  max acc
                    (d1 + l1d_hit
                    + Isa.mesh_dist p
                        (Isa.rt_position b.Block.writes.(w).Block.wreg))
                | _ -> acc)
              d1 ins.Isa.targets
          | Isa.Store _ -> lat i + min_dt_hops p
          | Isa.Branch _ -> lat i + Isa.mesh_dist p Isa.gt_position
          | _ ->
            List.fold_left
              (fun acc -> function
                | Isa.To_inst (j, _) when j >= 0 && j < n ->
                  max acc (lat i + Isa.mesh_dist p (pos j) + tail.(j))
                | Isa.To_write w when w >= 0 && w < nw ->
                  max acc
                    (lat i
                    + Isa.mesh_dist p
                        (Isa.rt_position b.Block.writes.(w).Block.wreg))
                | _ -> acc)
              (lat i) ins.Isa.targets
        in
        tail.(i) <- t
      done;
      let issue0 i = max (arrival.(0).(i)) (dispatched i) in
      let slack =
        Array.init n (fun i -> max 0 (crit - (issue0 i + tail.(i))))
      in
      let completion = Array.init n (fun i -> max 0 comp.(0).(i)) in
      (* tile loads and link hotspots *)
      let tile_load = Array.make Isa.num_ets 0 in
      Array.iter
        (fun et -> tile_load.(et) <- tile_load.(et) + 1)
        b.Block.placement;
      let link_max = Array.fold_left max 0 link_load in
      let contention_est = max 0 (link_max - max 1 crit) in
      (* predicate chain depth *)
      let pdepth = Array.make n (-1) in
      let rec pred_depth i =
        if pdepth.(i) >= 0 then pdepth.(i)
        else begin
          pdepth.(i) <- 0;
          (* 0 breaks cycles defensively *)
          let d =
            match b.Block.insts.(i).Isa.pred with
            | Isa.Unpred -> 0
            | Isa.On_true p | Isa.On_false p ->
              if p >= 0 && p < n then 1 + pred_depth p else 1
          in
          pdepth.(i) <- d;
          d
        end
      in
      let max_pred = ref 0 and max_pred_i = ref 0 in
      for i = 0 to n - 1 do
        let d = pred_depth i in
        if d > !max_pred then begin
          max_pred := d;
          max_pred_i := i
        end
      done;
      (* placement-quality diagnostics *)
      let rec flag_long_routes i =
        (match arrival_prov.(i) with
        | Pinst (j, h) ->
          if h >= 4 then
            emit ~inst:i "route-critical"
              (Printf.sprintf
                 "critical-path operand from I%d travels %d OPN hops" j h)
              ~fix:"co-locate producer and consumer (scheduler anchors)";
          flag_long_routes j
        | Pread (k, h) ->
          if h >= 4 then
            emit ~inst:i "route-critical"
              (Printf.sprintf
                 "critical-path operand from read slot R%d travels %d OPN hops"
                 k h)
              ~fix:"place the consumer nearer its register tile"
        | _ -> ())
      in
      (match write_prov.(max 0 !best_w) with
      | Pinst (i, _) when crit = !best_write -> flag_long_routes i
      | _ -> (
        match !mem_prov with
        | Pinst (i, _) when crit = mem_out.(0) -> flag_long_routes i
        | _ -> ()));
      let busiest = ref 0 in
      Array.iteri
        (fun et c -> if c > tile_load.(!busiest) then busiest := et)
        tile_load;
      if
        n >= 8
        && tile_load.(!busiest) * 4 >= n * 3
        && tile_load.(!busiest) > 2
      then
        emit "et-hotspot"
          (Printf.sprintf
             "tile %d holds %d of %d instructions; placement is concentrated"
             !busiest tile_load.(!busiest) n)
          ~fix:"rebalance the placement across the ET grid";
      if contention_est > 0 then
        emit "opn-hotspot"
          (Printf.sprintf
             "busiest OPN link carries %d messages over a %d-cycle path"
             link_max (max 1 crit))
          ~fix:"spread communicating instructions across mesh rows/columns";
      if !max_pred >= 4 then
        emit ~inst:!max_pred_i "pred-chain"
          (Printf.sprintf "predicate chain of depth %d serializes the block"
             !max_pred)
          ~fix:"balance the predicate computation into a tree of tests";
      let summary =
        {
          s_label = label;
          s_n = n;
          s_crit = crit;
          s_completion = completion;
          s_slack = slack;
          s_breakdown = breakdown;
          s_tile_load = tile_load;
          s_link_max = link_max;
          s_contention_est = contention_est;
          s_pred_depth = !max_pred;
          s_reads = Array.map (fun (r : Block.read) -> r.Block.rreg) b.Block.reads;
          s_writes =
            Array.map (fun (w : Block.write) -> w.Block.wreg) b.Block.writes;
          s_exit_insts = exit_insts;
          s_dispatch_done = dispatch_done;
          s_base_write = Array.init nw (fun w -> write_time.(0).(w));
          s_base_mem = mem_out.(0);
          s_base_resolve = base_resolve;
          s_read_write =
            Array.init nr (fun k -> Array.init nw (fun w -> write_time.(1 + k).(w)));
          s_read_mem = Array.init nr (fun k -> mem_out.(1 + k));
          s_read_resolve =
            Array.init nr (fun k -> Array.init ne (fun e -> resolve.(1 + k).(e)));
        }
      in
      (summary, List.rev !diags)
    end
  end

(* ------------------------------------------------------------------ *)
(* Program-level analysis                                              *)
(* ------------------------------------------------------------------ *)

(* Register round-trips: block B's critical path ends in a register write
   that starts the critical path of its unique jump successor C — the
   value crosses the RT instead of staying in dataflow, which hyperblock
   growth could avoid. *)
let check_roundtrips ~fname (f : Block.func)
    (summaries : (string, summary) Hashtbl.t) : Diag.t list =
  let out = ref [] in
  List.iter
    (fun (b : Block.t) ->
      match (Block.exits b, Hashtbl.find_opt summaries b.Block.label) with
      | [ (_, Isa.Xjump next) ], Some sb when sb.s_crit > 0 -> (
        match Hashtbl.find_opt summaries next with
        | Some sc
          when List.exists
                 (fun (blk : Block.t) -> blk.Block.label = next)
                 f.Block.blocks ->
          Array.iteri
            (fun w t ->
              if t = sb.s_crit then
                (* the write is B's critical output; does C's critical path
                   start at a read of the same register? *)
                let reg = sb.s_writes.(w) in
                Array.iteri
                  (fun k r ->
                    if r = reg then begin
                      let drives =
                        Array.exists (fun l -> l > neg && l + sc.s_dispatch_done >= sc.s_crit)
                          sc.s_read_write.(k)
                        || (sc.s_read_mem.(k) > neg
                            && sc.s_read_mem.(k) + sc.s_dispatch_done >= sc.s_crit)
                        || Array.exists (fun l -> l > neg && l + sc.s_dispatch_done >= sc.s_crit)
                             sc.s_read_resolve.(k)
                      in
                      if drives then
                        out :=
                          Diag.make ~sev:Diag.Info ~pass:"timing" ~fname
                            ~block:b.Block.label "reg-roundtrip"
                            (Printf.sprintf
                               "r%d carries the critical path from %s to %s \
                                through the register file"
                               reg b.Block.label next)
                            ~fix:
                              "grow the hyperblock so the value stays in \
                               dataflow"
                          :: !out
                    end)
                  sc.s_reads)
            sb.s_base_write
        | _ -> ())
      | _ -> ())
    f.Block.blocks;
  List.rev !out

let summarize_program (p : Block.program) :
    (string, summary) Hashtbl.t * Diag.t list =
  let summaries = Hashtbl.create 64 in
  let diags = ref [] in
  List.iter
    (fun (f : Block.func) ->
      List.iter
        (fun (b : Block.t) ->
          let s, ds = analyze_block ~fname:f.Block.fname b in
          Hashtbl.replace summaries b.Block.label s;
          diags := List.rev_append ds !diags)
        f.Block.blocks)
    p.Block.funcs;
  List.iter
    (fun (f : Block.func) ->
      diags :=
        List.rev_append (check_roundtrips ~fname:f.Block.fname f summaries) !diags)
    p.Block.funcs;
  (summaries, List.rev !diags)

(* ------------------------------------------------------------------ *)
(* Trace composition: whole-program cycle prediction                   *)
(* ------------------------------------------------------------------ *)

type state = {
  m : Core.config;
  reg_ready : int array;
  commits : int array;              (* window ring of commit times *)
  mutable last_commit : int;
  mutable prev_fetch : int;
  mutable prev_resolve : int;
  mutable seq : int;
  mutable stepped : int;
  mutable mispredicts : int;
}

let create (m : Core.config) =
  {
    m;
    reg_ready = Array.make Isa.num_regs 0;
    commits = Array.make m.Core.window_blocks 0;
    last_commit = 0;
    prev_fetch = 0;
    prev_resolve = 0;
    seq = 0;
    stepped = 0;
    mispredicts = 0;
  }

let step st (s : summary) ~exit_idx ~prev_correct =
  let m = st.m in
  let window = m.Core.window_blocks in
  let frame_limit =
    if st.seq >= window then st.commits.(st.seq mod window) else 0
  in
  let fetch =
    if st.stepped = 0 then 0
    else if prev_correct then
      max (st.prev_fetch + m.Core.fetch_interval) frame_limit
    else begin
      st.mispredicts <- st.mispredicts + 1;
      max (st.prev_resolve + m.Core.redirect_penalty) frame_limit
    end
  in
  let d = fetch + m.Core.l1i.Cache.hit_latency in
  let nr = Array.length s.s_reads in
  let nw = Array.length s.s_writes in
  let read_avail = Array.map (fun r -> st.reg_ready.(r)) s.s_reads in
  let combine base row =
    (* max of the dispatch lag and every read-source lag *)
    let t = ref (if base > neg then d + base else neg) in
    for k = 0 to nr - 1 do
      let l = row k in
      if l > neg then t := max !t (read_avail.(k) + l)
    done;
    !t
  in
  let writes =
    Array.init nw (fun w ->
        combine s.s_base_write.(w) (fun k -> s.s_read_write.(k).(w)))
  in
  let mem = combine s.s_base_mem (fun k -> s.s_read_mem.(k)) in
  let ne = Array.length s.s_base_resolve in
  let e = if ne = 0 then -1 else max 0 (min exit_idx (ne - 1)) in
  let resolve =
    if e < 0 then d + 1
    else
      max (d + 1)
        (combine s.s_base_resolve.(e) (fun k -> s.s_read_resolve.(k).(e)))
  in
  let done_t =
    Array.fold_left max (max resolve (max mem (d + 1))) writes
  in
  let commit = max (done_t + m.Core.commit_overhead) (st.last_commit + 1) in
  st.last_commit <- commit;
  st.commits.(st.seq mod window) <- commit;
  st.seq <- st.seq + 1;
  st.stepped <- st.stepped + 1;
  Array.iteri (fun w t -> if t > neg then st.reg_ready.(s.s_writes.(w)) <- t) writes;
  st.prev_fetch <- fetch;
  st.prev_resolve <- resolve

let cycles st = max 1 st.last_commit
let blocks_stepped st = st.stepped
let mispredicts st = st.mispredicts

let predicted_block_cost (m : Core.config) (s : summary) =
  m.Core.l1i.Cache.hit_latency + s.s_crit + m.Core.commit_overhead

(* ------------------------------------------------------------------ *)
(* Whole-program prediction over the functional execution's trace      *)
(* ------------------------------------------------------------------ *)

type prediction = {
  pr_cycles : int;              (* predicted whole-program cycles *)
  pr_blocks : int;              (* block instances composed *)
  pr_mispredicts : int;         (* redirects the replayed predictor took *)
  pr_counts : (string, int) Hashtbl.t;  (* block label -> instances *)
  pr_summaries : (string, summary) Hashtbl.t;
  pr_diags : Diag.t list;
}

let predict_program (prog : Block.program) image ~entry ~args : prediction =
  let config = Core.prototype in
  let summaries, diags = summarize_program prog in
  let st = create config in
  (* the predictor replayed by Core's own code over Core's successor
     graph; per block, by [Exec.instance.iindex]: its summary, the exit
     index of each instruction and its instance count *)
  let ctl = Core.make_control config prog in
  let blocks = Exec.blocks prog in
  let summary =
    Array.map (fun (b : Block.t) -> Hashtbl.find_opt summaries b.Block.label) blocks
  in
  let exit_of =
    Array.map
      (fun (b : Block.t) ->
        let a = Array.make (Array.length b.Block.insts) 0 in
        List.iteri (fun k (i, _) -> a.(i) <- k) (Block.exits b);
        a)
      blocks
  in
  let instances = Array.make (Array.length blocks) 0 in
  let prev_correct = ref true in
  let on_instance (inst : Exec.instance) =
    let k = inst.Exec.iindex in
    instances.(k) <- instances.(k) + 1;
    (match summary.(k) with
    | Some s ->
      step st s ~exit_idx:exit_of.(k).(inst.Exec.exit_inst) ~prev_correct:!prev_correct
    | None -> ());
    prev_correct := Core.predict_next ctl inst
  in
  let r = Exec.run ~on_instance prog image ~entry ~args in
  ignore r.Exec.ret;
  (* a label defined twice runs only its later block *)
  let counts : (string, int) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun k c -> if c > 0 then Hashtbl.replace counts blocks.(k).Block.label c)
    instances;
  {
    pr_cycles = cycles st;
    pr_blocks = blocks_stepped st;
    pr_mispredicts = mispredicts st;
    pr_counts = counts;
    pr_summaries = summaries;
    pr_diags = diags;
  }
