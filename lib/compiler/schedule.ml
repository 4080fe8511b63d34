module Isa = Trips_edge.Isa
module Block = Trips_edge.Block

(* 5x5 mesh: (0,0) = GT, (0,1..4) = RT0..3, (1..4,0) = DT0..3,
   (1..4,1..4) = the ET grid.  The geometry lives in Isa (shared with the
   block validator, the cycle simulator and the static timing analyzer). *)

let place (b : Block.t) =
  let n = Array.length b.insts in
  b.placement <- Array.make n 0;
  if n = 0 then ()
  else begin
    (* dataflow edges for topological order and producer positions *)
    let preds = Array.make n [] in      (* producer inst ids, per consumer *)
    let read_feeds = Array.make n [] in (* RT positions feeding each inst *)
    let indeg = Array.make n 0 in
    let succs = Array.make n [] in
    Array.iteri
      (fun i (ins : Isa.inst) ->
        List.iter
          (function
            | Isa.To_inst (j, _) ->
              preds.(j) <- i :: preds.(j);
              succs.(i) <- j :: succs.(i);
              indeg.(j) <- indeg.(j) + 1
            | Isa.To_write _ -> ())
          ins.targets)
      b.insts;
    Array.iter
      (fun (r : Block.read) ->
        List.iter
          (function
            | Isa.To_inst (j, _) ->
              read_feeds.(j) <- Isa.rt_position r.rreg :: read_feeds.(j)
            | Isa.To_write _ -> ())
          r.rtargets)
      b.reads;
    (* Kahn topological order *)
    let order = Queue.create () in
    let topo = ref [] in
    Array.iteri (fun i d -> if d = 0 then Queue.push i order) indeg;
    let seen = ref 0 in
    while not (Queue.is_empty order) do
      let i = Queue.pop order in
      topo := i :: !topo;
      incr seen;
      List.iter
        (fun j ->
          indeg.(j) <- indeg.(j) - 1;
          if indeg.(j) = 0 then Queue.push j order)
        succs.(i)
    done;
    let topo =
      if !seen = n then List.rev !topo
      else
        (* a malformed (cyclic) block: fall back to index order so the
           validator's error surfaces instead of a crash here *)
        List.init n (fun i -> i)
    in
    let occupancy = Array.make Isa.num_ets 0 in
    let writes_to_rt i =
      List.filter_map
        (function
          | Isa.To_write w -> Some (Isa.rt_position b.writes.(w).Block.wreg)
          | Isa.To_inst _ -> None)
        b.insts.(i).Isa.targets
    in
    List.iter
      (fun i ->
        let ins = b.insts.(i) in
        let producer_pos =
          List.map (fun p -> Isa.tile_position b.placement.(p)) preds.(i)
          @ read_feeds.(i)
        in
        let anchors =
          producer_pos
          @ writes_to_rt i
          @ (match ins.op with
            | Isa.Load _ | Isa.Store _ ->
              [ Isa.dt_position 0; Isa.dt_position 3 ]
              (* bank unknown statically: pull toward the DT column *)
            | Isa.Branch _ -> [ Isa.gt_position ]
            | _ -> [])
        in
        let best = ref (-1) in
        let best_cost = ref max_int in
        for et = 0 to Isa.num_ets - 1 do
          if occupancy.(et) < Isa.et_slots then begin
            let pos = Isa.tile_position et in
            let c =
              List.fold_left (fun acc a -> acc + Isa.mesh_dist a pos) 0 anchors
              + occupancy.(et)
            in
            if c < !best_cost then begin
              best_cost := c;
              best := et
            end
          end
        done;
        if !best < 0 then
          raise (Block.Invalid (b.label, "scheduler: no tile with free slots"));
        occupancy.(!best) <- occupancy.(!best) + 1;
        b.placement.(i) <- !best)
      topo
  end

let place_program (p : Block.program) =
  List.iter
    (fun (f : Block.func) -> List.iter place f.blocks)
    p.funcs
