(* Translation validation: per-pass symbolic equivalence checking.

   Each checker runs the two sides of a compiler pass over the shared
   {!Symval} term language, enumerates feasible predicate paths
   (target-first: the target's paths seed the source's path
   conditions), and compares the observable outputs — exit, register
   interface, memory stores, call events and return value.  A path
   whose normalized terms agree syntactically is [proved]; a residual
   mismatch falls back to seeded random concretization, which either
   finds a decisive counterexample ([refuted], with a
   [pass:"transval"] diag naming the first diverging definition) or
   upgrades the path to [concretely-validated].  See DESIGN.md §11. *)

module Ast = Trips_tir.Ast
module Ty = Trips_tir.Ty
module Cfg = Trips_tir.Cfg
module S = Symval
module Eisa = Trips_edge.Isa
module Eblk = Trips_edge.Block
module Risa = Trips_risc.Isa
module Rng = Trips_util.Rng
module IS = Set.Make (Int)

exception Refute of string
(** A structural divergence on the current path (stuck dataflow,
    mismatched shape, ...).  Caught by the path enumerator. *)

(* ------------------------------------------------------------------ *)
(* Exits                                                              *)
(* ------------------------------------------------------------------ *)

type exitk =
  | Xjump of string  (** jump to a labelled block *)
  | Xidx of int  (** jump to a code index (RISC; labels compare by index) *)
  | Xcall of string * string  (** call [callee], resume at label *)
  | Xret

let exitk_name = function
  | Xjump l -> "jump " ^ l
  | Xidx i -> Printf.sprintf "code[%d]" i
  | Xcall (f, r) -> Printf.sprintf "call %s -> %s" f r
  | Xret -> "ret"

let exitk_of_edge = function
  | Eisa.Xjump l -> Xjump l
  | Eisa.Xcall (f, r) -> Xcall (f, r)
  | Eisa.Xret -> Xret

(* ------------------------------------------------------------------ *)
(* Source regions: TIR instruction trees                              *)
(* ------------------------------------------------------------------ *)

type ritem =
  | Rins of Cfg.ins
  | Rif of Cfg.operand * ritem list * ritem list
  | Rexit of exitk
  | Rret of Cfg.operand option

type rconfig = {
  rc_iface : int -> S.t;  (** initial value of a virtual register *)
  rc_sym : string -> int64;  (** symbol addresses (linker layout) *)
  rc_isf : Cfg.operand -> bool;  (** float class of a call argument *)
  rc_dst_ch : int -> int;  (** havoc channel of a call destination *)
}

type rres = {
  rr_exit : exitk;
  rr_env : (int, S.t) Hashtbl.t;
  rr_ret : S.t option;
  rr_stores : (Ty.width * S.t * S.t) list;  (** program order *)
  rr_calls : (string * (bool * S.t) list) list;
}

let run_region ~pc rcfg items =
  let env = Hashtbl.create 32 in
  let stores = ref [] in
  let calls = ref [] in
  let callid = ref 0 in
  let mem = ref (S.Minit S.mem_program) in
  let lookup v =
    match Hashtbl.find_opt env v with Some t -> t | None -> rcfg.rc_iface v
  in
  let ev = function
    | Cfg.Reg v -> lookup v
    | Cfg.Ci n -> S.Ci n
    | Cfg.Cf f -> S.Cf f
    | Cfg.Sym s -> S.Ci (rcfg.rc_sym s)
  in
  let exec_ins = function
    | Cfg.Bin (op, d, a, b) -> Hashtbl.replace env d (S.bin op (ev a) (ev b))
    | Cfg.Un (op, d, a) -> Hashtbl.replace env d (S.un op (ev a))
    | Cfg.Mov (d, a) -> Hashtbl.replace env d (ev a)
    | Cfg.Load (ty, w, d, a, off) ->
      let addr = S.bin Ast.Add (ev a) (S.Ci (Int64.of_int off)) in
      Hashtbl.replace env d (S.sel ty w addr !mem)
    | Cfg.Store (w, a, off, v) ->
      let addr = S.bin Ast.Add (ev a) (S.Ci (Int64.of_int off)) in
      let raw = S.to_bits (ev v) in
      mem := S.store !mem w addr raw;
      stores := (w, addr, raw) :: !stores
    | Cfg.Call (dst, callee, args) ->
      let id = !callid in
      incr callid;
      calls := (callee, List.map (fun a -> (rcfg.rc_isf a, ev a)) args) :: !calls;
      mem := S.mcall id !mem;
      (match dst with
      | Some d -> Hashtbl.replace env d (S.Var (S.Vret (id, rcfg.rc_dst_ch d)))
      | None -> ())
  in
  let rec go = function
    | [] -> raise (Refute "region fell through without an exit")
    | Rins i :: rest ->
      exec_ins i;
      go rest
    | Rif (c, a, b) :: rest -> if S.decide pc (ev c) then go (a @ rest) else go (b @ rest)
    | Rexit k :: _ -> (k, None)
    | Rret v :: _ -> (Xret, Option.map ev v)
  in
  let ex, ret = go items in
  {
    rr_exit = ex;
    rr_env = env;
    rr_ret = ret;
    rr_stores = List.rev !stores;
    rr_calls = List.rev !calls;
  }

let env_get r rcfg v =
  match Hashtbl.find_opt r.rr_env v with Some t -> t | None -> rcfg.rc_iface v

let ritems_of_term = function
  | Cfg.Jmp l -> [ Rexit (Xjump l) ]
  | Cfg.Br (c, l1, l2) -> [ Rif (c, [ Rexit (Xjump l1) ], [ Rexit (Xjump l2) ]) ]
  | Cfg.Ret v -> [ Rret v ]

let ritems_of_block (b : Cfg.block) =
  List.map (fun i -> Rins i) b.Cfg.ins @ ritems_of_term b.Cfg.term

(* ------------------------------------------------------------------ *)
(* CFG block-level liveness (vreg granularity)                        *)
(* ------------------------------------------------------------------ *)

(* Blocks are indexed by position, each with its successors' indices, and
   swept backward until no live-in set changes: the least fixpoint, which
   does not depend on the sweep order.  A label names the last block that
   carries it, and one that names no block has nothing live. *)
let cfg_live_out (f : Cfg.func) =
  let op_regs = List.filter_map (function Cfg.Reg v -> Some v | _ -> None) in
  let blocks = Array.of_list f.Cfg.blocks in
  let n = Array.length blocks in
  let index = Hashtbl.create n in
  Array.iteri (fun i (b : Cfg.block) -> Hashtbl.replace index b.Cfg.label i) blocks;
  let gen = Array.make n IS.empty and kill = Array.make n IS.empty in
  Array.iteri
    (fun bi (b : Cfg.block) ->
      let g = ref IS.empty and k = ref IS.empty in
      let use v = if not (IS.mem v !k) then g := IS.add v !g in
      let def v = k := IS.add v !k in
      List.iter
        (fun i ->
          List.iter use (op_regs (Cfg.uses i));
          List.iter def (Cfg.defs i))
        b.Cfg.ins;
      List.iter use (op_regs (Cfg.term_uses b.Cfg.term));
      gen.(bi) <- !g;
      kill.(bi) <- !k)
    blocks;
  let succs =
    Array.map
      (fun (b : Cfg.block) ->
        List.filter_map (Hashtbl.find_opt index) (Cfg.successors b.Cfg.term))
      blocks
  in
  let live_in = Array.make n IS.empty and live_out = Array.make n IS.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = n - 1 downto 0 do
      let out = List.fold_left (fun acc s -> IS.union acc live_in.(s)) IS.empty succs.(i) in
      live_out.(i) <- out;
      let inn = IS.union gen.(i) (IS.diff out kill.(i)) in
      if not (IS.equal inn live_in.(i)) then begin
        live_in.(i) <- inn;
        changed := true
      end
    done
  done;
  fun l -> match Hashtbl.find_opt index l with Some i -> live_out.(i) | None -> IS.empty

(* ------------------------------------------------------------------ *)
(* EDGE dataflow blocks                                               *)
(* ------------------------------------------------------------------ *)

type token = Tv of S.t | Tnul

type eres = {
  er_exit : exitk;
  er_regs : (int * S.t) list;  (** architectural register writes *)
  er_stores : (Ty.width * S.t * S.t) list;  (** LSID order, nulls dropped *)
}

(* Mirrors [Trips_edge.Exec.exec_block]: token dataflow with a got
   bitmask per operand slot, predicate squashing, LSID-ordered memory
   and the same stuck conditions (raised here as {!Refute}). *)
let run_edge ~pc ~(init_reg : int -> S.t) (b : Eblk.t) =
  let n = Array.length b.Eblk.insts in
  let nw = Array.length b.Eblk.writes in
  let got = Array.make n 0 in
  let tok0 = Array.make n Tnul in
  let tok1 = Array.make n Tnul in
  let tokp = Array.make n Tnul in
  let fired = Array.make n false in
  let wval = Array.make nw None in
  let exit_fired = ref None in
  let max_lsid = ref (-1) in
  let store_sites = ref 0 in
  Array.iter
    (fun (ins : Eisa.inst) ->
      match ins.Eisa.op with
      | Eisa.Store (_, l) ->
        incr store_sites;
        if l > !max_lsid then max_lsid := l
      | Eisa.Load (_, _, l) -> if l > !max_lsid then max_lsid := l
      | _ -> ())
    b.Eblk.insts;
  let stores_below = Array.make (!max_lsid + 2) 0 in
  Array.iter
    (fun (ins : Eisa.inst) ->
      match ins.Eisa.op with
      | Eisa.Store (_, l) ->
        for k = l + 1 to !max_lsid + 1 do
          stores_below.(k) <- stores_below.(k) + 1
        done
      | _ -> ())
    b.Eblk.insts;
  let store_cnt = Array.make (!max_lsid + 2) 0 in
  let stores = ref [] in
  (* (lsid, width, (addr, raw) option) — [None] = nullified *)
  let lower_stores_done lsid =
    let fb = ref 0 in
    for l = 0 to lsid - 1 do
      fb := !fb + store_cnt.(l)
    done;
    !fb = stores_below.(lsid)
  in
  let deliver tgt tok =
    match tgt with
    | Eisa.To_write w -> (
      match tok with
      | Tnul -> raise (Refute "null token delivered to a write slot")
      | Tv t -> (
        match wval.(w) with
        | Some _ -> raise (Refute (Printf.sprintf "write slot %d received two values" w))
        | None -> wval.(w) <- Some t))
    | Eisa.To_inst (j, sl) ->
      let bit = match sl with Eisa.Op0 -> 1 | Eisa.Op1 -> 2 | Eisa.OpPred -> 4 in
      if got.(j) land bit <> 0 then
        raise (Refute (Printf.sprintf "I%d double delivery" j));
      got.(j) <- got.(j) lor bit;
      (match sl with
      | Eisa.Op0 -> tok0.(j) <- tok
      | Eisa.Op1 -> tok1.(j) <- tok
      | Eisa.OpPred -> tokp.(j) <- tok)
  in
  let deliver_all i tok =
    List.iter (fun tgt -> deliver tgt tok) b.Eblk.insts.(i).Eisa.targets
  in
  Array.iter
    (fun (r : Eblk.read) ->
      List.iter (fun tgt -> deliver tgt (Tv (init_reg r.Eblk.rreg))) r.Eblk.rtargets)
    b.Eblk.reads;
  (* 0 = not decidable yet, 1 = fire, 2 = squash *)
  let pred_ok i (ins : Eisa.inst) =
    match ins.Eisa.pred with
    | Eisa.Unpred -> 1
    | Eisa.On_true _ | Eisa.On_false _ ->
      if got.(i) land 4 = 0 then 0
      else (
        match tokp.(i) with
        | Tnul -> raise (Refute "null predicate")
        | Tv t ->
          let tr = S.decide pc t in
          let want = match ins.Eisa.pred with Eisa.On_true _ -> true | _ -> false in
          if tr = want then 1 else 2)
  in
  let fire i (ins : Eisa.inst) =
    fired.(i) <- true;
    match ins.Eisa.op with
    | Eisa.Bin op -> (
      let a = tok0.(i) in
      let b2 = match ins.Eisa.imm with Some v -> Tv (S.Ci v) | None -> tok1.(i) in
      match (a, b2) with
      | Tv ta, Tv tb -> deliver_all i (Tv (S.bin op ta tb))
      | _ -> raise (Refute "null operand in ALU op"))
    | Eisa.Un op -> (
      match tok0.(i) with
      | Tv ta -> deliver_all i (Tv (S.un op ta))
      | Tnul -> raise (Refute "null operand in ALU op"))
    | Eisa.Geni v -> deliver_all i (Tv (S.Ci v))
    | Eisa.Genf v -> deliver_all i (Tv (S.Cf v))
    | Eisa.Mov -> deliver_all i tok0.(i)
    | Eisa.Null -> deliver_all i Tnul
    | Eisa.Load (ty, w, lsid) ->
      let addr =
        match tok0.(i) with
        | Tnul -> raise (Refute "null load address")
        | Tv ta -> (
          match ins.Eisa.imm with
          | Some v -> S.bin Ast.Add ta (S.Ci v)
          | None -> ta)
      in
      let below =
        List.filter (fun (l, _, s) -> l < lsid && s <> None) !stores
        |> List.sort (fun (a, _, _) (b2, _, _) -> compare a b2)
      in
      let chain =
        List.fold_left
          (fun m (_, w2, s) ->
            match s with Some (a, r) -> S.store m w2 a r | None -> m)
          (S.Minit S.mem_program)
          below
      in
      deliver_all i (Tv (S.sel ty w addr chain))
    | Eisa.Store (w, lsid) ->
      (match (tok0.(i), tok1.(i)) with
      | Tv ta, Tv td ->
        let addr =
          match ins.Eisa.imm with
          | Some v -> S.bin Ast.Add ta (S.Ci v)
          | None -> ta
        in
        stores := (lsid, w, Some (addr, S.to_bits td)) :: !stores
      | _ -> stores := (lsid, w, None) :: !stores);
      store_cnt.(lsid) <- store_cnt.(lsid) + 1
    | Eisa.Branch dest -> (
      match !exit_fired with
      | Some _ -> raise (Refute "two branches fired")
      | None -> exit_fired := Some dest)
  in
  let progress = ref true in
  let fuel = ref ((n + 2) * (n + 2) + 64) in
  while !progress do
    progress := false;
    for i = 0 to n - 1 do
      if not fired.(i) then begin
        let ins = b.Eblk.insts.(i) in
        let arity = Eisa.operand_arity ins in
        let have_ops =
          (arity < 1 || got.(i) land 1 <> 0) && (arity < 2 || got.(i) land 2 <> 0)
        in
        if have_ops && pred_ok i ins = 1 then begin
          let defer =
            match ins.Eisa.op with
            | Eisa.Load (_, _, lsid) -> not (lower_stores_done lsid)
            | _ -> false
          in
          if not defer then begin
            decr fuel;
            if !fuel <= 0 then raise (Refute "out of fuel");
            fire i ins;
            progress := true
          end
        end
      end
    done
  done;
  let stores_done = List.length !stores in
  if stores_done <> !store_sites then
    raise (Refute (Printf.sprintf "only %d/%d stores completed" stores_done !store_sites));
  let exit_dest =
    match !exit_fired with None -> raise (Refute "no branch fired") | Some d -> d
  in
  let regs =
    Array.to_list
      (Array.mapi
         (fun w v ->
           match v with
           | None -> raise (Refute (Printf.sprintf "write slot %d received no value" w))
           | Some t -> (b.Eblk.writes.(w).Eblk.wreg, t))
         wval)
  in
  let commits =
    List.sort (fun (a, _, _) (b2, _, _) -> compare a b2) !stores
    |> List.filter_map (fun (_, w, s) ->
           match s with Some (a, r) -> Some (w, a, r) | None -> None)
  in
  { er_exit = exitk_of_edge exit_dest; er_regs = regs; er_stores = commits }

(* ------------------------------------------------------------------ *)
(* Path enumeration                                                   *)
(* ------------------------------------------------------------------ *)

type 'a path = { pa_pc : S.pc; pa_res : ('a, string) result }

let enum ?(pc0 = []) ~max_paths run =
  let paths = ref [] in
  let count = ref 0 in
  let truncated = ref false in
  let rec go pc =
    if !count >= max_paths then truncated := true
    else
      match run pc with
      | r ->
        incr count;
        paths := { pa_pc = pc; pa_res = Ok r } :: !paths
      | exception S.Fork k ->
        go (pc @ [ (k, true) ]);
        go (pc @ [ (k, false) ])
      | exception Refute msg ->
        incr count;
        paths := { pa_pc = pc; pa_res = Error msg } :: !paths
  in
  go pc0;
  (List.rev !paths, !truncated)

(* ------------------------------------------------------------------ *)
(* Concretization                                                     *)
(* ------------------------------------------------------------------ *)

let is_fop = function
  | Ast.Fadd | Ast.Fsub | Ast.Fmul | Ast.Fdiv | Ast.Feq | Ast.Fne | Ast.Flt
  | Ast.Fle | Ast.Fgt | Ast.Fge ->
    true
  | _ -> false

(* Mark variables that appear in a float operand position so the
   concretizer draws floats for them.  The visited sets keep the walk
   linear in the term DAG; a (node, flag) pair is walked at most
   twice. *)
let hint_visitor m =
  let vis_t = Hashtbl.create 256 and vis_m = Hashtbl.create 32 in
  let rec hint_t fl t =
    if not (Hashtbl.mem vis_t (t, fl)) then begin
      Hashtbl.replace vis_t (t, fl) ();
      match t with
      | S.Ci _ | S.Cf _ -> ()
      | S.Var v -> if fl then Hashtbl.replace m v true
      | S.Bin (op, a, b) ->
        let f = is_fop op in
        hint_t f a;
        hint_t f b
      | S.Un (op, a) ->
        let f = match op with Ast.Fneg | Ast.Ftoi -> true | _ -> false in
        hint_t f a
      | S.Fbits a -> hint_t true a
      | S.Fofbits a -> hint_t false a
      | S.Sel (_, _, a, mm) ->
        hint_t false a;
        hint_m mm
    end
  and hint_m mm =
    if not (Hashtbl.mem vis_m mm) then begin
      Hashtbl.replace vis_m mm ();
      match mm with
      | S.Minit _ -> ()
      | S.Mstore (o, _, a, v) ->
        hint_m o;
        hint_t false a;
        hint_t false v
      | S.Mcall (_, o) -> hint_m o
    end
  in
  hint_t

type cverdict = Crefuted of string * string | Cconcrete | Cvacuous

let value_str = function
  | Ty.Vi i -> Int64.to_string i
  | Ty.Vf f -> Printf.sprintf "%h" f

(* Rejection-sample assignments satisfying [pc]; a satisfying vector
   plus a structural divergence or a decisive constant disagreement in
   [pairs] refutes the path. *)
let concretize ~seed ~pc ~structural ~pairs =
  let rng = Rng.create seed in
  let vs = ref [] in
  List.iter (fun (k, _) -> vs := S.vars !vs k) pc;
  List.iter (fun (_, a, b) -> vs := S.vars (S.vars !vs a) b) pairs;
  let vs = List.sort_uniq Stdlib.compare !vs in
  let hints = Hashtbl.create 16 in
  let hint = hint_visitor hints in
  List.iter (fun (k, _) -> hint false k) pc;
  List.iter
    (fun (_, a, b) ->
      hint false a;
      hint false b)
    pairs;
  let draw v =
    match v with
    | S.Vint 1 -> S.Ci (Int64.of_int (0x400000 + (8 * Rng.int rng 65536)))
    | S.Vflt _ | S.Vret (_, 1) -> S.Cf (Rng.float rng 64.0 -. 32.0)
    | _ when Hashtbl.mem hints v -> S.Cf (Rng.float rng 64.0 -. 32.0)
    | _ -> (
      match Rng.int rng 6 with
      | 0 -> S.Ci 0L
      | 1 -> S.Ci 1L
      | 2 -> S.Ci (-1L)
      | 3 -> S.Ci (Int64.of_int (Rng.int rng 256 - 128))
      | 4 -> S.Ci (Int64.of_int (0x1000 + (8 * Rng.int rng 512)))
      | _ -> S.Ci (Rng.next rng))
  in
  let found = ref 0 in
  let refuted = ref None in
  let t = ref 0 in
  while !refuted = None && !found < 6 && !t < 400 do
    incr t;
    let m = Hashtbl.create 16 in
    List.iter (fun v -> Hashtbl.replace m v (draw v)) vs;
    let sub v = Hashtbl.find_opt m v in
    let sat =
      List.for_all
        (fun (k, pol) ->
          match S.value_of (S.subst sub k) with
          | Some v -> Ty.truthy v = pol
          | None -> false)
        pc
    in
    if sat then begin
      incr found;
      match structural with
      | Some msg -> refuted := Some ("path", msg)
      | None ->
        List.iter
          (fun (name, a, b) ->
            if !refuted = None then
              match (S.value_of (S.subst sub a), S.value_of (S.subst sub b)) with
              | Some va, Some vb when Stdlib.compare va vb <> 0 ->
                refuted :=
                  Some
                    ( name,
                      Printf.sprintf "source=%s target=%s under a satisfying vector"
                        (value_str va) (value_str vb) )
              | _ -> ())
          pairs
    end
  done;
  match !refuted with
  | Some (n, m) -> Crefuted (n, m)
  | None -> if !found > 0 then Cconcrete else Cvacuous

(* ------------------------------------------------------------------ *)
(* Per-block reports                                                  *)
(* ------------------------------------------------------------------ *)

type verdict = Vproved | Vconcrete | Vrefuted

let verdict_name = function
  | Vproved -> "proved"
  | Vconcrete -> "concrete"
  | Vrefuted -> "refuted"

type report = {
  r_stage : string;
  r_fname : string;
  r_block : string;
  r_verdict : verdict;
  r_paths : int;
  r_diags : Diag.t list;
}

let mk_report ~stage ~fname ~block verdict npaths diags =
  {
    r_stage = stage;
    r_fname = fname;
    r_block = block;
    r_verdict = verdict;
    r_paths = npaths;
    r_diags = diags;
  }

let refuted_report ~stage ~fname ~block msg =
  mk_report ~stage ~fname ~block Vrefuted 0
    [
      Diag.make ~pass:"transval" ~fname ~block "miscompile"
        (Printf.sprintf "[%s] %s" stage msg);
    ]

type cmp = {
  mutable cs : string option;  (** first structural divergence *)
  mutable cp : (string * S.t * S.t) list;  (** residual value pairs *)
}

let pair c name a b = if not (S.equal a b) then c.cp <- (name, a, b) :: c.cp
let shape c msg = if c.cs = None then c.cs <- Some msg

let compare_stores c ss ts =
  if List.length ss <> List.length ts then
    shape c
      (Printf.sprintf "store count mismatch: source %d vs target %d" (List.length ss)
         (List.length ts))
  else
    List.iteri
      (fun k ((sw, sa, sv), (tw, ta, tv)) ->
        if sw <> tw then shape c (Printf.sprintf "store#%d width mismatch" k)
        else begin
          pair c (Printf.sprintf "store#%d.addr" k) sa ta;
          pair c (Printf.sprintf "store#%d.val" k) sv tv
        end)
      (List.combine ss ts)

let check_block_pair ~stage ~fname ~block ?(max_paths = 512) ~run_src ~run_tgt
    ~compare_out () =
  (* fresh intern generation per block: terms never flow between block
     checks, and the tables would otherwise grow with the program *)
  S.reset_intern ();
  let seed = Int64.of_int (Hashtbl.hash (stage, fname, block)) in
  let diags = ref [] in
  let nref = ref 0 and nconc = ref 0 and npaths = ref 0 in
  let truncated = ref false in
  let judge pc ~structural ~pairs =
    match concretize ~seed ~pc ~structural ~pairs with
    | Crefuted (name, msg) ->
      incr nref;
      diags :=
        Diag.make ~pass:"transval" ~fname ~block "miscompile"
          (Printf.sprintf "[%s] %s: %s" stage name msg)
        :: !diags
    | Cconcrete -> incr nconc
    | Cvacuous ->
      incr nconc;
      diags :=
        Diag.make ~sev:Diag.Warning ~pass:"transval" ~fname ~block "concretize-unsat"
          (Printf.sprintf "[%s] no satisfying vector found for a divergent path" stage)
        :: !diags
  in
  let tpaths, ttr = enum ~max_paths run_tgt in
  if ttr then truncated := true;
  List.iter
    (fun tp ->
      match tp.pa_res with
      | Error msg ->
        incr npaths;
        judge tp.pa_pc ~structural:(Some ("target " ^ msg)) ~pairs:[]
      | Ok tgt ->
        let spaths, str = enum ~pc0:tp.pa_pc ~max_paths run_src in
        if str then truncated := true;
        List.iter
          (fun sp ->
            incr npaths;
            match sp.pa_res with
            | Error msg -> judge sp.pa_pc ~structural:(Some ("source " ^ msg)) ~pairs:[]
            | Ok src ->
              let c = { cs = None; cp = [] } in
              compare_out c sp.pa_pc src tgt;
              if c.cs <> None || c.cp <> [] then
                judge sp.pa_pc ~structural:c.cs ~pairs:(List.rev c.cp))
          spaths)
    tpaths;
  if !truncated then begin
    incr nconc;
    diags :=
      Diag.make ~sev:Diag.Warning ~pass:"transval" ~fname ~block "path-limit"
        (Printf.sprintf "[%s] path enumeration truncated at %d" stage max_paths)
      :: !diags
  end;
  let verdict =
    if !nref > 0 then Vrefuted else if !nconc > 0 then Vconcrete else Vproved
  in
  mk_report ~stage ~fname ~block verdict !npaths (List.rev !diags)

(* ------------------------------------------------------------------ *)
(* Pass checkers                                                      *)
(* ------------------------------------------------------------------ *)

(* TIR-to-TIR: every post-pass block must agree with its same-labelled
   pre-pass counterpart on exits, live-out registers, stores, call
   events and the return value.  Dead definitions removed by the pass
   are invisible because only live-out vregs are compared. *)
let check_opt ?max_paths ~sym ~fname (pre : Cfg.func) (post : Cfg.func) =
  (* values whose consumers were all dead may legitimately vanish, so
     only values live on both sides are compared; a dropped definition
     whose use survives stays live in [post] and is still caught *)
  let live_pre = cfg_live_out pre and live_post = cfg_live_out post in
  let live_out l = IS.inter (live_pre l) (live_post l) in
  let rcfg =
    {
      rc_iface = (fun v -> S.Var (S.Vreg v));
      rc_sym = sym;
      rc_isf = (fun _ -> false);
      rc_dst_ch = (fun _ -> 0);
    }
  in
  let compare_calls c ss ts =
    if List.length ss <> List.length ts then
      shape c
        (Printf.sprintf "call count mismatch: source %d vs target %d" (List.length ss)
           (List.length ts))
    else
      List.iteri
        (fun k ((sn, sargs), (tn, targs)) ->
          if sn <> tn then
            shape c (Printf.sprintf "call#%d callee mismatch: %s vs %s" k sn tn)
          else if List.length sargs <> List.length targs then
            shape c (Printf.sprintf "call#%d argument count mismatch" k)
          else
            List.iteri
              (fun j ((_, sa), (_, ta)) ->
                pair c (Printf.sprintf "call#%d.arg#%d" k j) sa ta)
              (List.combine sargs targs))
        (List.combine ss ts)
  in
  List.map
    (fun (pb : Cfg.block) ->
      let l = pb.Cfg.label in
      match Cfg.find_block pre l with
      | exception Not_found ->
        refuted_report ~stage:"opt" ~fname ~block:l
          "block has no counterpart before the pass"
      | sb ->
        let run_src pc = run_region ~pc rcfg (ritems_of_block sb) in
        let run_tgt pc = run_region ~pc rcfg (ritems_of_block pb) in
        let lo = live_out l in
        check_block_pair ~stage:"opt" ~fname ~block:l ?max_paths ~run_src ~run_tgt
          ~compare_out:(fun c _pc s t ->
            if s.rr_exit <> t.rr_exit then
              shape c
                (Printf.sprintf "exit mismatch: %s vs %s" (exitk_name s.rr_exit)
                   (exitk_name t.rr_exit));
            (match (s.rr_ret, t.rr_ret) with
            | None, None -> ()
            | Some a, Some b -> pair c "ret" a b
            | _ -> shape c "return value present on one side only");
            IS.iter
              (fun v ->
                pair c (Printf.sprintf "v%d" v) (env_get s rcfg v) (env_get t rcfg v))
              lo;
            compare_stores c s.rr_stores t.rr_stores;
            compare_calls c s.rr_calls t.rr_calls)
          ())
    post.Cfg.blocks

(* TIR region vs EDGE dataflow block: the core dataflow-conversion
   check.  [iface] maps a source vreg to its architectural-register
   term; [writes] lists (vreg, arch reg) output pairs. *)
let check_hblock ?max_paths ?(stage = "dataflow-convert") ~fname ~sym ~iface ~writes
    ~src (tgt : Eblk.t) =
  let block = tgt.Eblk.label in
  let twregs =
    Array.to_list (Array.map (fun (w : Eblk.write) -> w.Eblk.wreg) tgt.Eblk.writes)
  in
  let swregs = List.map snd writes in
  let sorted = List.sort_uniq compare in
  if sorted twregs <> sorted swregs then
    refuted_report ~stage ~fname ~block
      (Printf.sprintf "write-set mismatch: source {%s} vs target {%s}"
         (String.concat "," (List.map string_of_int (sorted swregs)))
         (String.concat "," (List.map string_of_int (sorted twregs))))
  else begin
    let rcfg =
      { rc_iface = iface; rc_sym = sym; rc_isf = (fun _ -> false); rc_dst_ch = (fun _ -> 0) }
    in
    let run_src pc = run_region ~pc rcfg src in
    let run_tgt pc = run_edge ~pc ~init_reg:(fun r -> S.Var (S.Varch r)) tgt in
    check_block_pair ~stage ~fname ~block ?max_paths ~run_src ~run_tgt
      ~compare_out:(fun c _pc s t ->
        if s.rr_exit <> t.er_exit then
          shape c
            (Printf.sprintf "exit mismatch: %s vs %s" (exitk_name s.rr_exit)
               (exitk_name t.er_exit));
        List.iter
          (fun (v, r) ->
            match List.assoc_opt r t.er_regs with
            | None -> shape c (Printf.sprintf "write of r%d missing" r)
            | Some tv -> pair c (Printf.sprintf "v%d->r%d" v r) (env_get s rcfg v) tv)
          writes;
        compare_stores c s.rr_stores t.er_stores)
      ()
  end

(* Scheduling must not touch semantics: instruction, read and write
   arrays are bit-identical to the pre-placement snapshot and the
   placement map is well-formed. *)
let check_schedule ~fname pre (post : Eblk.func) =
  List.map
    (fun (b : Eblk.t) ->
      let l = b.Eblk.label in
      match List.assoc_opt l pre with
      | None -> refuted_report ~stage:"schedule" ~fname ~block:l "no pre-schedule snapshot"
      | Some (insts, reads, writes) ->
        let msgs = ref [] in
        if Stdlib.compare insts b.Eblk.insts <> 0 then
          msgs := "instruction array changed across scheduling" :: !msgs;
        if Stdlib.compare reads b.Eblk.reads <> 0 then
          msgs := "read array changed across scheduling" :: !msgs;
        if Stdlib.compare writes b.Eblk.writes <> 0 then
          msgs := "write array changed across scheduling" :: !msgs;
        if Array.length b.Eblk.placement <> Array.length b.Eblk.insts then
          msgs := "placement length mismatch" :: !msgs;
        Array.iter
          (fun p ->
            if p < 0 || p >= Eisa.num_ets then msgs := "placement slot out of range" :: !msgs)
          b.Eblk.placement;
        (match List.sort_uniq compare !msgs with
        | [] -> mk_report ~stage:"schedule" ~fname ~block:l Vproved 0 []
        | ms ->
          mk_report ~stage:"schedule" ~fname ~block:l Vrefuted 0
            (List.map
               (fun m ->
                 Diag.make ~pass:"transval" ~fname ~block:l "miscompile"
                   (Printf.sprintf "[schedule] %s" m))
               ms)))
    post.Eblk.blocks

(* Linking: every jump, call and return label resolves. *)
let check_link (p : Eblk.program) =
  List.map
    (fun (f : Eblk.func) ->
      let fname = f.Eblk.fname in
      let labels = List.map (fun (b : Eblk.t) -> b.Eblk.label) f.Eblk.blocks in
      let msgs = ref [] in
      let dups =
        List.filter (fun l -> List.length (List.filter (( = ) l) labels) > 1) labels
        |> List.sort_uniq compare
      in
      List.iter (fun l -> msgs := Printf.sprintf "duplicate label %s" l :: !msgs) dups;
      if not (List.mem f.Eblk.entry labels) then
        msgs := Printf.sprintf "entry label %s missing" f.Eblk.entry :: !msgs;
      List.iter
        (fun (b : Eblk.t) ->
          List.iter
            (fun (_, d) ->
              match d with
              | Eisa.Xjump l ->
                if not (List.mem l labels) then
                  msgs := Printf.sprintf "%s jumps to unknown label %s" b.Eblk.label l :: !msgs
              | Eisa.Xcall (callee, retl) ->
                (match Eblk.find_func p callee with
                | exception Not_found ->
                  msgs := Printf.sprintf "%s calls unknown function %s" b.Eblk.label callee :: !msgs
                | _ -> ());
                if not (List.mem retl labels) then
                  msgs :=
                    Printf.sprintf "%s returns from a call to unknown label %s" b.Eblk.label retl
                    :: !msgs
              | Eisa.Xret -> ())
            (Eblk.exits b))
        f.Eblk.blocks;
      match List.rev !msgs with
      | [] -> mk_report ~stage:"link" ~fname ~block:"" Vproved 0 []
      | ms ->
        mk_report ~stage:"link" ~fname ~block:"" Vrefuted 0
          (List.map
             (fun m ->
               Diag.make ~pass:"transval" ~fname "miscompile"
                 (Printf.sprintf "[link] %s" m))
             ms))
    p.Eblk.funcs

(* ------------------------------------------------------------------ *)
(* RISC backend                                                       *)
(* ------------------------------------------------------------------ *)

type loc = Lreg of int | Lspill of int

let spill_off s = 16 + (8 * s)

type rtres = {
  rt_exit : exitk;
  rt_ints : S.t array;
  rt_flts : S.t array;
  rt_stk : S.mem;
  rt_stores : (Ty.width * S.t * S.t) list;
  rt_calls : (string * S.t list * S.t list) list;
      (** callee, ABI int arg registers, ABI float arg registers *)
}

let float_srcs_op (op : Ast.binop) = is_fop op

let float_dst_op = function
  | Ast.Fadd | Ast.Fsub | Ast.Fmul | Ast.Fdiv -> true
  | _ -> false

(* Symbolic execution of the code range [start, stop): mirrors
   [Trips_risc.Exec.run] for a single basic block.  Addresses rooted
   at the stack pointer go to the stack chain; everything else is
   program memory.  Branches exit with the target code index. *)
let run_risc_range ~pc (rf : Risa.func) ~start ~stop =
  let code_len = Array.length rf.Risa.code in
  let ints = Array.init 32 (fun i -> S.Var (S.Vint i)) in
  let flts = Array.init 32 (fun i -> S.Var (S.Vflt i)) in
  let prog = ref (S.Minit S.mem_program) in
  let stk = ref (S.Minit S.mem_stack) in
  let pstores = ref [] in
  let calls = ref [] in
  let callid = ref 0 in
  let is_stack addr =
    match S.addr_parts addr with
    | Some r, _ -> S.equal r (S.Var (S.Vint 1))
    | None, _ -> false
  in
  let cur = ref start in
  let fin = ref None in
  let fuel = ref ((4 * (stop - start)) + 64) in
  while !fin = None do
    decr fuel;
    if !fuel <= 0 then raise (Refute "out of fuel");
    if !cur >= stop then
      if stop >= code_len then raise (Refute "fell off the end of the code")
      else fin := Some (Xidx stop)
    else begin
      let nxt = ref (!cur + 1) in
      (match rf.Risa.code.(!cur) with
      | Risa.Op (op, d, a, b) ->
        let fsrc = float_srcs_op op and fdst = float_dst_op op in
        let ta = if fsrc then flts.(a) else ints.(a) in
        let tb = if fsrc then flts.(b) else ints.(b) in
        let r = S.bin op ta tb in
        if fdst then flts.(d) <- r else ints.(d) <- r
      | Risa.Opi (op, d, a, n) -> ints.(d) <- S.bin op ints.(a) (S.Ci n)
      | Risa.Unop (op, d, a) ->
        let fsrc = match op with Ast.Ftoi | Ast.Fneg -> true | _ -> false in
        let fdst = match op with Ast.Itof | Ast.Fneg -> true | _ -> false in
        let r = S.un op (if fsrc then flts.(a) else ints.(a)) in
        if fdst then flts.(d) <- r else ints.(d) <- r
      | Risa.Li (d, n) -> ints.(d) <- S.Ci n
      | Risa.Lis (d, n) -> ints.(d) <- S.Ci (Int64.shift_left n 16)
      | Risa.Ori (d, a, n) -> ints.(d) <- S.bin Ast.Or ints.(a) (S.Ci n)
      | Risa.Lfc (d, v, _) -> flts.(d) <- S.Cf v
      | Risa.Mr (d, a) -> ints.(d) <- ints.(a)
      | Risa.Fmr (d, a) -> flts.(d) <- flts.(a)
      | Risa.Lw (ty, w, d, a, off) ->
        let addr = S.bin Ast.Add ints.(a) (S.Ci (Int64.of_int off)) in
        let chain = if is_stack addr then !stk else !prog in
        let v = S.sel ty w addr chain in
        if ty = Ty.F64 then flts.(d) <- v else ints.(d) <- v
      | Risa.Sw (ty, w, a, off, s) ->
        let addr = S.bin Ast.Add ints.(a) (S.Ci (Int64.of_int off)) in
        let raw = S.to_bits (if ty = Ty.F64 then flts.(s) else ints.(s)) in
        if is_stack addr then stk := S.store !stk w addr raw
        else begin
          prog := S.store !prog w addr raw;
          pstores := (w, addr, raw) :: !pstores
        end
      | Risa.B t -> fin := Some (Xidx t)
      | Risa.Bc (r, t, f) ->
        if S.decide pc ints.(r) then fin := Some (Xidx t) else nxt := f
      | Risa.Call callee ->
        let id = !callid in
        incr callid;
        calls :=
          ( callee,
            List.map (fun r -> ints.(r)) Risa.abi_int_args,
            List.map (fun r -> flts.(r)) Risa.abi_flt_args )
          :: !calls;
        ints.(Risa.abi_int_ret) <- S.Var (S.Vret (id, 0));
        flts.(Risa.abi_flt_ret) <- S.Var (S.Vret (id, 1));
        prog := S.mcall id !prog
      | Risa.Ret -> fin := Some Xret);
      if !fin = None then cur := !nxt
    end
  done;
  {
    rt_exit = (match !fin with Some k -> k | None -> assert false);
    rt_ints = ints;
    rt_flts = flts;
    rt_stk = !stk;
    rt_stores = List.rev !pstores;
    rt_calls = List.rev !calls;
  }

(* The emitted function places the prologue (frame push, callee-saves,
   parameter binding) before the entry label, so every label's code
   range contains exactly its CFG block's body.  The prologue is
   checked separately: it must fall through to the entry label having
   moved every parameter to its assigned location, pushed the frame
   and touched nothing else observable. *)
let check_risc_prologue ~fname ~(cls : int -> bool) ~(loc : int -> loc) ~frame
    ~has_frame (cfg : Cfg.func) (rf : Risa.func) =
  S.reset_intern ();
  let block = "<prologue>" in
  try
    let entry_label =
      match cfg.Cfg.blocks with
      | b :: _ -> b.Cfg.label
      | [] -> raise (Refute "function has no blocks")
    in
    let stop =
      match List.assoc_opt entry_label rf.Risa.labels with
      | Some i -> i
      | None ->
        raise (Refute (Printf.sprintf "label %s missing from emitted code" entry_label))
    in
    let t =
      try run_risc_range ~pc:[] rf ~start:0 ~stop
      with S.Fork _ -> raise (Refute "unexpected branch in the prologue")
    in
    let c = { cs = None; cp = [] } in
    (match t.rt_exit with
    | Xidx i when i = stop -> ()
    | k ->
      shape c
        (Printf.sprintf "prologue exits via %s instead of falling through"
           (exitk_name k)));
    if t.rt_stores <> [] then shape c "program store in the prologue";
    if t.rt_calls <> [] then shape c "call in the prologue";
    let sp0 = S.Var (S.Vint 1) in
    let sp_expect =
      if has_frame then S.bin Ast.Sub sp0 (S.Ci (Int64.of_int frame)) else sp0
    in
    pair c "sp" sp_expect t.rt_ints.(1);
    let ni = ref Risa.abi_int_args and nf = ref Risa.abi_flt_args in
    List.iter
      (fun (pv, ty) ->
        let take chan what =
          match !chan with
          | r :: tl ->
            chan := tl;
            r
          | [] -> raise (Refute ("too many " ^ what ^ " parameters for the ABI"))
        in
        let expect =
          if ty = Ty.F64 then S.Var (S.Vflt (take nf "float"))
          else S.Var (S.Vint (take ni "integer"))
        in
        let got =
          match loc pv with
          | Lreg r -> if cls pv then t.rt_flts.(r) else t.rt_ints.(r)
          | Lspill s ->
            let lty = if cls pv then Ty.F64 else Ty.I64 in
            S.sel lty Ty.W8
              (S.bin Ast.Add t.rt_ints.(1) (S.Ci (Int64.of_int (spill_off s))))
              t.rt_stk
        in
        pair c (Printf.sprintf "param v%d" pv) expect got)
      cfg.Cfg.params;
    if c.cs = None && c.cp = [] then mk_report ~stage:"risc" ~fname ~block Vproved 1 []
    else begin
      let seed = Int64.of_int (Hashtbl.hash ("risc", fname, block)) in
      match concretize ~seed ~pc:[] ~structural:c.cs ~pairs:(List.rev c.cp) with
      | Crefuted (name, msg) ->
        refuted_report ~stage:"risc" ~fname ~block (Printf.sprintf "%s: %s" name msg)
      | Cconcrete | Cvacuous -> mk_report ~stage:"risc" ~fname ~block Vconcrete 1 []
    end
  with Refute msg -> refuted_report ~stage:"risc" ~fname ~block msg

(* One CFG block vs its code range in the emitted RISC function.
   [cls v] is true for float vregs; [loc] is the register-allocation
   assignment.  At a return exit only the ABI return value, stack
   balance, program stores and call events are observable; at a branch
   exit the live-out vregs are compared at their assigned locations. *)
let check_risc_func ?max_paths ~sym ~fname ~(cls : int -> bool) ~(loc : int -> loc)
    ~frame ~has_frame (cfg : Cfg.func) (rf : Risa.func) =
  let live_out = cfg_live_out cfg in
  let code_len = Array.length rf.Risa.code in
  let blocks = Array.of_list cfg.Cfg.blocks in
  let nb = Array.length blocks in
  let label_idx l =
    match List.assoc_opt l rf.Risa.labels with
    | Some i -> i
    | None -> raise (Refute (Printf.sprintf "label %s missing from emitted code" l))
  in
  let prologue =
    check_risc_prologue ~fname ~cls ~loc ~frame ~has_frame cfg rf
  in
  prologue
  :: List.mapi
    (fun k (b : Cfg.block) ->
      try
        let start = label_idx b.Cfg.label in
        let stop = if k = nb - 1 then code_len else label_idx blocks.(k + 1).Cfg.label in
        let iface v =
          match loc v with
          | Lreg r -> S.Var (if cls v then S.Vflt r else S.Vint r)
          | Lspill s ->
            let ty = if cls v then Ty.F64 else Ty.I64 in
            S.sel ty Ty.W8
              (S.bin Ast.Add (S.Var (S.Vint 1)) (S.Ci (Int64.of_int (spill_off s))))
              (S.Minit S.mem_stack)
        in
        let rcfg =
          {
            rc_iface = iface;
            rc_sym = sym;
            rc_isf =
              (function Cfg.Cf _ -> true | Cfg.Reg v -> cls v | _ -> false);
            rc_dst_ch = (fun d -> if cls d then 1 else 0);
          }
        in
        let run_src pc = run_region ~pc rcfg (ritems_of_block b) in
        let run_tgt pc = run_risc_range ~pc rf ~start ~stop in
        let lo = live_out b.Cfg.label in
        check_block_pair ~stage:"risc" ~fname ~block:b.Cfg.label ?max_paths ~run_src
          ~run_tgt
          ~compare_out:(fun c _pc s t ->
            (* exits compare by code index *)
            (match s.rr_exit with
            | Xjump l -> (
              match List.assoc_opt l rf.Risa.labels with
              | None -> shape c (Printf.sprintf "jump to unknown label %s" l)
              | Some i ->
                if t.rt_exit <> Xidx i then
                  shape c
                    (Printf.sprintf "exit mismatch: %s (code[%d]) vs %s" l i
                       (exitk_name t.rt_exit)))
            | sx ->
              if sx <> t.rt_exit then
                shape c
                  (Printf.sprintf "exit mismatch: %s vs %s" (exitk_name sx)
                     (exitk_name t.rt_exit)));
            (* call events: arguments are read from the ABI registers *)
            if List.length s.rr_calls <> List.length t.rt_calls then
              shape c
                (Printf.sprintf "call count mismatch: source %d vs target %d"
                   (List.length s.rr_calls) (List.length t.rt_calls))
            else
              List.iteri
                (fun k2 ((sn, sargs), (tn, tiargs, tfargs)) ->
                  if sn <> tn then
                    shape c (Printf.sprintf "call#%d callee mismatch: %s vs %s" k2 sn tn)
                  else begin
                    let ni = ref tiargs and nf = ref tfargs in
                    List.iteri
                      (fun j (isf, sa) ->
                        let chan = if isf then nf else ni in
                        match !chan with
                        | [] -> shape c (Printf.sprintf "call#%d has too many arguments" k2)
                        | ta :: tl ->
                          chan := tl;
                          pair c (Printf.sprintf "call#%d.arg#%d" k2 j) sa ta)
                      sargs
                  end)
                (List.combine s.rr_calls t.rt_calls);
            compare_stores c s.rr_stores t.rt_stores;
            (* stack-pointer balance: every block runs with the frame
               already pushed; only a return pops it *)
            let sp0 = S.Var (S.Vint 1) in
            let sp_expect =
              match s.rr_exit with
              | Xret when has_frame -> S.bin Ast.Add sp0 (S.Ci (Int64.of_int frame))
              | _ -> sp0
            in
            pair c "sp" sp_expect t.rt_ints.(1);
            match s.rr_exit with
            | Xret -> (
              match (cfg.Cfg.ret, s.rr_ret) with
              | None, _ -> ()
              | Some Ty.F64, Some sv -> pair c "ret" sv t.rt_flts.(Risa.abi_flt_ret)
              | Some Ty.I64, Some sv -> pair c "ret" sv t.rt_ints.(Risa.abi_int_ret)
              | Some _, None -> shape c "missing return value")
            | _ ->
              IS.iter
                (fun v ->
                  let sv = env_get s rcfg v in
                  let tv =
                    match loc v with
                    | Lreg r -> if cls v then t.rt_flts.(r) else t.rt_ints.(r)
                    | Lspill sl ->
                      let ty = if cls v then Ty.F64 else Ty.I64 in
                      let addr =
                        S.bin Ast.Add t.rt_ints.(1) (S.Ci (Int64.of_int (spill_off sl)))
                      in
                      S.sel ty Ty.W8 addr t.rt_stk
                  in
                  pair c (Printf.sprintf "v%d" v) sv tv)
                lo)
          ()
      with Refute msg -> refuted_report ~stage:"risc" ~fname ~block:b.Cfg.label msg)
    cfg.Cfg.blocks

(* ------------------------------------------------------------------ *)
(* Aggregation                                                        *)
(* ------------------------------------------------------------------ *)

type summary = { n_proved : int; n_concrete : int; n_refuted : int }

let summarize reports =
  List.fold_left
    (fun s r ->
      match r.r_verdict with
      | Vproved -> { s with n_proved = s.n_proved + 1 }
      | Vconcrete -> { s with n_concrete = s.n_concrete + 1 }
      | Vrefuted -> { s with n_refuted = s.n_refuted + 1 })
    { n_proved = 0; n_concrete = 0; n_refuted = 0 }
    reports

let report_diags reports = List.concat_map (fun r -> r.r_diags) reports

(* ------------------------------------------------------------------ *)
(* Global optimization application                                     *)
(* ------------------------------------------------------------------ *)

let copy_cfg_func (f : Cfg.func) : Cfg.func =
  {
    f with
    Cfg.blocks =
      List.map (fun (b : Cfg.block) -> { b with Cfg.ins = b.Cfg.ins }) f.Cfg.blocks;
  }

let check_gapply (mid : Cfg.program) applied (g1 : Cfg.program) =
  let stage = "global-opt" in
  (* one clean analysis of the pre-application program: the validator
     re-derives every fact with its own (unbugged) fixpoint *)
  let t = Absint.analyze mid in
  List.map
    (fun (f : Cfg.func) ->
      let gfs =
        match List.assoc_opt f.Cfg.name applied with Some l -> l | None -> []
      in
      match Cfg.find_func g1 f.Cfg.name with
      | exception Not_found ->
        refuted_report ~stage ~fname:f.Cfg.name ~block:""
          "function disappeared across global opt"
      | g1f -> (
        let clean = Trips_tir.Opt.gather_global (Absint.facts t f.Cfg.name) f in
        match List.filter (fun g -> not (List.mem g clean)) gfs with
        | bad :: _ ->
          refuted_report ~stage ~fname:f.Cfg.name ~block:""
            (Format.asprintf "global fact not independently derivable: %a"
               Trips_tir.Opt.pp_gfact bad)
        | [] ->
          (* syntactic replay: applying the facts to the pre image must
             reproduce the compiler's post image bit for bit *)
          let replay = copy_cfg_func f in
          Trips_tir.Opt.apply_global replay gfs;
          let fp = Trips_tir.Opt.fingerprint in
          if not (String.equal (fp replay) (fp g1f)) then
            refuted_report ~stage ~fname:f.Cfg.name ~block:""
              "global apply replay diverges from compiler output"
          else mk_report ~stage ~fname:f.Cfg.name ~block:"" Vproved (List.length gfs) []))
    mid.Cfg.funcs

(* ------------------------------------------------------------------ *)
(* LSID relaxation                                                     *)
(* ------------------------------------------------------------------ *)

let check_relax ~fname (pre : Eblk.t) (post : Eblk.t) =
  let stage = "lsid-relax" in
  let fail msg = refuted_report ~stage ~fname ~block:post.Eblk.label msg in
  if
    pre.Eblk.label <> post.Eblk.label
    || pre.Eblk.reads <> post.Eblk.reads
    || pre.Eblk.writes <> post.Eblk.writes
    || Array.length pre.Eblk.insts <> Array.length post.Eblk.insts
  then fail "relaxation changed non-memory block structure"
  else begin
    let n = Array.length pre.Eblk.insts in
    let mismatch = ref None in
    let mem = ref [] in
    (* (inst index, old lsid, new lsid, is_store) *)
    for i = 0 to n - 1 do
      let a = pre.Eblk.insts.(i) and b = post.Eblk.insts.(i) in
      (* Stdlib.compare, not (=): a [Genf nan] immediate must equal itself *)
      let rest_eq =
        Stdlib.compare { a with Eisa.op = Eisa.Mov } { b with Eisa.op = Eisa.Mov } = 0
      in
      match (a.Eisa.op, b.Eisa.op) with
      | Eisa.Load (t1, w1, l1), Eisa.Load (t2, w2, l2)
        when t1 = t2 && w1 = w2 && rest_eq ->
        mem := (i, l1, l2, false) :: !mem
      | Eisa.Store (w1, l1), Eisa.Store (w2, l2) when w1 = w2 && rest_eq ->
        mem := (i, l1, l2, true) :: !mem
      | _ -> if Stdlib.compare a b <> 0 then mismatch := Some i
    done;
    match !mismatch with
    | Some i ->
      fail (Printf.sprintf "relaxation rewrote non-LSID instruction %d" i)
    | None ->
      let mem = List.rev !mem in
      let olds = List.sort compare (List.map (fun (_, o, _, _) -> o) mem) in
      let news = List.sort compare (List.map (fun (_, _, n, _) -> n) mem) in
      if olds <> news then fail "relaxed LSIDs are not a permutation"
      else begin
        (* disjointness is re-derived from the post block alone *)
        let ms = Memsep.memops post in
        let mop i = List.find_opt (fun m -> m.Memsep.m_inst = i) ms in
        let bad = ref None in
        let flips = ref 0 in
        List.iter
          (fun (i, o1, n1, s1) ->
            List.iter
              (fun (j, o2, n2, s2) ->
                if i < j && o1 < o2 <> (n1 < n2) && (s1 || s2) then
                  if s1 && s2 then
                    bad := Some (Printf.sprintf "store-store order flipped (%d,%d)" i j)
                  else begin
                    incr flips;
                    match (mop i, mop j) with
                    | Some a, Some b ->
                      if not (Memsep.disjoint a b) then
                        bad :=
                          Some
                            (Printf.sprintf
                               "flipped load/store pair (%d,%d) not provably disjoint" i j)
                    | _ -> bad := Some "memory op vanished from post block"
                  end)
              mem)
          mem;
        match !bad with
        | Some msg -> fail msg
        | None -> mk_report ~stage ~fname ~block:post.Eblk.label Vproved !flips []
      end
  end
