module Cfg = Trips_tir.Cfg
open Hyperblock

type t = {
  assign : (Cfg.vreg, int) Hashtbl.t;
  live_in : (string, Cfg.vreg list) Hashtbl.t;
  live_out : (string, Cfg.vreg list) Hashtbl.t;
  write_set : (string, Cfg.vreg list) Hashtbl.t;
}

exception Pressure of string

(* Bit rows: a set over [0, n) is an [int array] of [words n] words,
   [Sys.int_size] bits each. *)
let bits = Sys.int_size
let words n = (n + bits - 1) / bits
let set_bit s i = s.(i / bits) <- s.(i / bits) lor (1 lsl (i mod bits))
let clear_bit s i = s.(i / bits) <- s.(i / bits) land lnot (1 lsl (i mod bits))

(* [f i] for every member, ascending. *)
let iter_bits f s =
  Array.iteri
    (fun w x ->
      let x = ref x and i = ref (w * bits) in
      while !x <> 0 do
        if !x land 1 <> 0 then f !i;
        x := !x lsr 1;
        incr i
      done)
    s

let union_into dst src = Array.iteri (fun w x -> dst.(w) <- dst.(w) lor x) src
let inter a b = Array.mapi (fun w x -> x land b.(w)) a

let popcount s =
  Array.fold_left
    (fun n x ->
      let x = ref x and n = ref n in
      while !x <> 0 do
        x := !x land (!x - 1);
        incr n
      done;
      !n)
    0 s

let successors hb =
  List.filter_map
    (function Ejump l -> Some l | Ecall (_, retl) -> Some retl | Eret -> None)
    (exits_of hb)

let allocate (hf : hfunc) : t =
  let blocks = Array.of_list hf.hblocks in
  let nb = Array.length blocks in
  let pinned_args = List.filter (fun (_, r) -> r <> 1) hf.pinned in
  let v_ret = fst (List.find (fun (_, r) -> r = 1) hf.pinned) in
  let defs = Array.map (fun hb -> body_defs hb.body) blocks in
  let uses = Array.map (fun hb -> body_uses_before_def hb.body) blocks in
  let has_call =
    Array.map
      (fun hb -> List.exists (function Ecall _ -> true | _ -> false) (exits_of hb))
      blocks
  in
  (* Everything live is read somewhere: by a block before its own
     definitions, or at an exit, where only pins are read.  Number those
     vregs densely, in ascending order; every set below is a bit row over
     that universe. *)
  let top =
    Array.fold_left (List.fold_left max) (List.fold_left (fun m (v, _) -> max m v) 0 hf.pinned) uses
  in
  let uidx = Array.make (top + 1) (-1) in
  let mark v = uidx.(v) <- 0 in
  List.iter (fun (v, _) -> mark v) hf.pinned;
  Array.iter (List.iter mark) uses;
  let uvreg = Array.of_list (List.filter (fun v -> uidx.(v) = 0) (List.init (top + 1) Fun.id)) in
  Array.iteri (fun u v -> uidx.(v) <- u) uvreg;
  let nu = Array.length uvreg in
  let uw = words nu in
  let row_of vs =
    let s = Array.make uw 0 in
    List.iter (fun v -> if v <= top && uidx.(v) >= 0 then set_bit s uidx.(v)) vs;
    s
  in
  (* Per-block sets.  [def] (may-defs) feeds the write sets; [kill]
     (must-defs: the unpredicated prefix) is the only sound liveness kill
     set — a value assigned on one predicated path still flows through on
     the other, where the merge rereads the register. *)
  let use = Array.map row_of uses in
  let kill = Array.map (fun hb -> row_of (prefix_defs hb.body)) blocks in
  let def = Array.map row_of defs in
  let arg_vregs = row_of (List.map fst pinned_args) in
  let use_end =
    Array.mapi
      (fun i hb ->
        let ue = Array.make uw 0 in
        List.iter
          (function
            | Eret -> set_bit ue uidx.(v_ret)
            | Ecall _ -> union_into ue (inter def.(i) arg_vregs)
            | Ejump _ -> ())
          (exits_of hb);
        ue)
      blocks
  in
  (* the callee magically defines the return-value register at call exits *)
  Array.iteri (fun i call -> if call then set_bit def.(i) uidx.(v_ret)) has_call;
  (* iterative liveness to the least fixpoint; successors outside the
     function are ignored *)
  let index = Hashtbl.create nb in
  Array.iteri (fun i hb -> Hashtbl.replace index hb.hlabel i) blocks;
  let succs = Array.map (fun hb -> List.filter_map (Hashtbl.find_opt index) (successors hb)) blocks in
  let live_in = Array.init nb (fun _ -> Array.make uw 0) in
  let live_out = Array.init nb (fun _ -> Array.make uw 0) in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to nb - 1 do
      let lin = live_in.(i) and lout = live_out.(i) in
      for w = 0 to uw - 1 do
        let o = List.fold_left (fun o j -> o lor live_in.(j).(w)) use_end.(i).(w) succs.(i) in
        let n = use.(i).(w) lor (o land lnot kill.(i).(w)) in
        if o <> lout.(w) then begin
          lout.(w) <- o;
          changed := true
        end;
        if n <> lin.(w) then begin
          lin.(w) <- n;
          changed := true
        end
      done
    done
  done;
  (* allocation domain: everything live across an edge, plus pins *)
  let domain = row_of (List.map fst hf.pinned) in
  Array.iter (union_into domain) live_in;
  Array.iter (union_into domain) live_out;
  (* interference, one row per domain vreg: every live-in and live-out set
     is a clique, and each domain def interferes with everything live out
     of its block *)
  let interf = Array.make nu [||] in
  iter_bits (fun u -> interf.(u) <- Array.make uw 0) domain;
  for i = 0 to nb - 1 do
    let lin = live_in.(i) and lout = live_out.(i) in
    let d = inter def.(i) domain in
    iter_bits (fun a -> union_into interf.(a) lin) lin;
    iter_bits (fun a -> union_into interf.(a) lout) lout;
    iter_bits (fun a -> union_into interf.(a) lout) d;
    iter_bits (fun a -> union_into interf.(a) d) lout
  done;
  iter_bits (fun a -> clear_bit interf.(a) a) domain;
  (* greedy coloring, pins first *)
  let assign = Hashtbl.create 64 in
  let color = Array.make nu (-1) in
  List.iter
    (fun (v, r) ->
      Hashtbl.replace assign v r;
      color.(uidx.(v)) <- r)
    hf.pinned;
  let nodes = ref [] in
  iter_bits (fun u -> if not (List.mem_assoc uvreg.(u) hf.pinned) then nodes := u :: !nodes) domain;
  let degree = Array.map popcount interf in
  let nodes = List.stable_sort (fun a b -> compare degree.(b) degree.(a)) (List.rev !nodes) in
  (* [taken.(c) = a]: some neighbour of node [a] already holds color [c] *)
  let taken = Array.make Trips_edge.Isa.num_regs (-1) in
  List.iter
    (fun a ->
      iter_bits (fun n -> if color.(n) >= 0 then taken.(color.(n)) <- a) interf.(a);
      (* r0 is left free as a conventional scratch register; pins live at
         1..9 but are reusable when not interfering *)
      let c = ref 1 in
      while !c < Trips_edge.Isa.num_regs && taken.(!c) = a do incr c done;
      if !c >= Trips_edge.Isa.num_regs then raise (Pressure hf.hname);
      color.(a) <- !c;
      Hashtbl.replace assign uvreg.(a) !c)
    nodes;
  let elements s =
    let l = ref [] in
    iter_bits (fun u -> l := uvreg.(u) :: !l) s;
    List.rev !l
  in
  let table f =
    let h = Hashtbl.create 16 in
    Array.iteri (fun i hb -> Hashtbl.replace h hb.hlabel (f i)) blocks;
    h
  in
  (* write sets: defs that are live out (plus argument pins at call exits;
     those are in use_end and therefore in live_out already) *)
  let write_set =
    table (fun i ->
        let ws = elements (inter def.(i) live_out.(i)) in
        (* the return-value register is written by the callee, not by the
           caller's call block *)
        if has_call.(i) && not (List.mem v_ret defs.(i)) then List.filter (( <> ) v_ret) ws
        else ws)
  in
  {
    assign;
    live_in = table (fun i -> elements live_in.(i));
    live_out = table (fun i -> elements live_out.(i));
    write_set;
  }

let reg_of t v = Hashtbl.find t.assign v
