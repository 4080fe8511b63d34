module Cfg = Trips_tir.Cfg
module Ast = Trips_tir.Ast
module Ty = Trips_tir.Ty
module Isa = Trips_edge.Isa
module Builder = Trips_edge.Builder
open Hyperblock

module IM = Map.Make (Int)

(* Immediate operands: a 16-bit signed field, modeling the prototype's
   short immediate forms; wider constants need explicit generation. *)
let fits_imm n = n >= -32768L && n < 32768L

type ctx = (Builder.h * bool) list
(* predicate context, outermost decision first *)

type state = {
  b : Builder.t;
  ra : Regalloc.t;
  layout : (string * int) list;
  mutable read_memo : Builder.h IM.t;          (* vreg -> read handle *)
  mutable geni_memo : (int64 * Builder.h) list;
  mutable genf_memo : (int64 * Builder.h) list; (* keyed by bits *)
  mutable top_tests : int list;                 (* Builder.id of top-level compares *)
  mutable guard_memo : ((int * (int * bool) list) * Builder.h) list;
}

let ctx_key (ctx : ctx) = List.map (fun (h, p) -> (Builder.id h, p)) ctx

let innermost = function [] -> None | (t, p) :: _ -> Some (t, p)

let read_of st v =
  match IM.find_opt v st.read_memo with
  | Some h -> h
  | None ->
    let reg =
      try Regalloc.reg_of st.ra v
      with Not_found ->
        failwith (Printf.sprintf "Dataflow: v%d read but not register-allocated" v)
    in
    let h = Builder.read st.b reg in
    st.read_memo <- IM.add v h st.read_memo;
    h

let geni st n =
  match List.assoc_opt n st.geni_memo with
  | Some h -> h
  | None ->
    let h = Builder.inst st.b (Isa.Geni n) in
    st.geni_memo <- (n, h) :: st.geni_memo;
    h

let genf st f =
  let key = Int64.bits_of_float f in
  match List.assoc_opt key st.genf_memo with
  | Some h -> h
  | None ->
    let h = Builder.inst st.b (Isa.Genf f) in
    st.genf_memo <- (key, h) :: st.genf_memo;
    h

let resolve st bindings (o : Cfg.operand) : Builder.h =
  match o with
  | Cfg.Reg v -> ( match IM.find_opt v bindings with Some h -> h | None -> read_of st v)
  | Cfg.Ci n -> geni st n
  | Cfg.Cf f -> genf st f
  | Cfg.Sym s -> (
    match List.assoc_opt s st.layout with
    | Some addr -> geni st (Int64.of_int addr)
    | None -> failwith ("Dataflow: unknown global " ^ s))

(* Constant or handle: lets binops keep small constants in the immediate
   field instead of a dataflow edge. *)
let resolve_rhs st bindings (o : Cfg.operand) : [ `Imm of int64 | `H of Builder.h ] =
  match o with
  | Cfg.Ci n when fits_imm n -> `Imm n
  | _ -> `H (resolve st bindings o)

(* Guard chain for block outputs: deliver [h]'s value when the whole [ctx]
   path is taken, a null token otherwise; exactly one delivery either way.
   Must recurse outermost-test-first: only the outermost test is guaranteed
   to fire, so it owns the top-level value/null decision.  [ctx] stores the
   innermost test first, hence the reversal. *)
let rec guarded_chain st outermost_first (h : Builder.h) : Builder.h =
  match outermost_first with
  | [] -> h
  | (t, pol) :: rest ->
    let key = (Builder.id h, ctx_key outermost_first) in
    (match List.assoc_opt key st.guard_memo with
    | Some g -> g
    | None ->
      let inner = guarded_chain st rest h in
      let ok = Builder.inst st.b ~pred:(t, pol) Isa.Mov in
      Builder.arc st.b inner ok Isa.Op0;
      let no = Builder.inst st.b ~pred:(t, not pol) Isa.Null in
      let j = Builder.inst st.b Isa.Mov in
      Builder.arc st.b ok j Isa.Op0;
      Builder.arc st.b no j Isa.Op0;
      st.guard_memo <- (key, j) :: st.guard_memo;
      j)

let guarded st (ctx : ctx) (h : Builder.h) : Builder.h =
  guarded_chain st (List.rev ctx) h

(* Tests: produce the predicate handle guarding an [If].  Reuse a top-level
   comparison directly; otherwise chain a fresh test on the current
   innermost predicate so the chain fires iff the path is taken. *)
let get_test st bindings (ctx : ctx) (c : Cfg.operand) : Builder.h =
  let h = resolve st bindings c in
  let reusable = ctx = [] && List.mem (Builder.id h) st.top_tests in
  if reusable then h
  else begin
    let t = Builder.inst st.b ?pred:(innermost ctx) ~imm:0L (Isa.Bin Ast.Ne) in
    Builder.arc st.b h t Isa.Op0;
    t
  end

let conv_ins st (ctx : ctx) bindings (ins : Cfg.ins) : Builder.h IM.t =
  match ins with
  | Cfg.Bin (op, d, a, b) ->
    let trapping = match op with Ast.Div | Ast.Rem -> true | _ -> false in
    let pred = if trapping then innermost ctx else None in
    (* fold a small constant into the immediate field, swapping commutative
       operands when only the left one is constant *)
    let a, b =
      match (a, b) with
      | Cfg.Ci n, other when fits_imm n && Ast.commutative op -> (other, Cfg.Ci n)
      | _ -> (a, b)
    in
    let ha = resolve st bindings a in
    let h =
      match resolve_rhs st bindings b with
      | `Imm n ->
        let h = Builder.inst st.b ?pred ~imm:n (Isa.Bin op) in
        Builder.arc st.b ha h Isa.Op0;
        h
      | `H hb ->
        let h = Builder.inst st.b ?pred (Isa.Bin op) in
        Builder.arc st.b ha h Isa.Op0;
        Builder.arc st.b hb h Isa.Op1;
        h
    in
    if ctx = [] && Isa.is_test op then st.top_tests <- Builder.id h :: st.top_tests;
    IM.add d h bindings
  | Cfg.Un (op, d, a) ->
    let ha = resolve st bindings a in
    let h = Builder.inst st.b (Isa.Un op) in
    Builder.arc st.b ha h Isa.Op0;
    IM.add d h bindings
  | Cfg.Mov (d, a) ->
    (* a register-to-register copy needs no instruction: rebind *)
    IM.add d (resolve st bindings a) bindings
  | Cfg.Load (ty, w, d, a, off) ->
    let ha = resolve st bindings a in
    let imm = if fits_imm (Int64.of_int off) then Int64.of_int off else 0L in
    let ha =
      if imm = 0L && off <> 0 then begin
        (* displacement too large for the immediate field *)
        let add = Builder.inst st.b ~imm:(Int64.of_int off) (Isa.Bin Ast.Add) in
        Builder.arc st.b ha add Isa.Op0;
        add
      end
      else ha
    in
    let h = Builder.inst st.b ?pred:(innermost ctx) ~imm (Isa.Load (ty, w, -1)) in
    Builder.arc st.b ha h Isa.Op0;
    IM.add d h bindings
  | Cfg.Store (w, a, off, v) ->
    let ha = resolve st bindings a in
    let imm = if fits_imm (Int64.of_int off) then Int64.of_int off else 0L in
    let ha =
      if imm = 0L && off <> 0 then begin
        let add = Builder.inst st.b ~imm:(Int64.of_int off) (Isa.Bin Ast.Add) in
        Builder.arc st.b ha add Isa.Op0;
        add
      end
      else ha
    in
    let hv = resolve st bindings v in
    let stq = Builder.inst st.b ~imm (Isa.Store (w, -1)) in
    Builder.arc st.b (guarded st ctx ha) stq Isa.Op0;
    Builder.arc st.b (guarded st ctx hv) stq Isa.Op1;
    bindings
  | Cfg.Call _ -> failwith "Dataflow: calls must be split during block formation"

let rec item_uses_deep (items : item list) : Cfg.vreg list =
  let regs ops = List.filter_map (function Cfg.Reg r -> Some r | _ -> None) ops in
  List.concat_map
    (fun item ->
      match item with
      | Ins i -> regs (Cfg.uses i)
      | If (c, t, e) -> regs [ c ] @ item_uses_deep t @ item_uses_deep e
      | Exit _ | Lbl _ -> [])
    items

let convert (ra : Regalloc.t) ~layout (hb : hblock) : Trips_edge.Block.t =
  let st =
    {
      b = Builder.create hb.hlabel;
      ra;
      layout;
      read_memo = IM.empty;
      geni_memo = [];
      genf_memo = [];
      top_tests = [];
      guard_memo = [];
    }
  in
  let write_set = Hashtbl.find ra.Regalloc.write_set hb.hlabel in
  let rec conv_items ctx bindings (items : item list) : Builder.h IM.t =
    match items with
    | [] -> bindings
    | Lbl _ :: rest -> conv_items ctx bindings rest
    | Ins i :: rest -> conv_items ctx (conv_ins st ctx bindings i) rest
    | Exit k :: rest ->
      let dest =
        match k with
        | Ejump l -> Isa.Xjump l
        | Ecall (f, retl) -> Isa.Xcall (f, retl)
        | Eret -> Isa.Xret
      in
      let (_ : Builder.h) =
        Builder.inst st.b ?pred:(innermost ctx) (Isa.Branch dest)
      in
      conv_items ctx bindings rest
    | If (c, t, e) :: rest ->
      let test = get_test st bindings ctx c in
      let bt = conv_items ((test, true) :: ctx) bindings t in
      let be = conv_items ((test, false) :: ctx) bindings e in
      (* merge definitions that are needed later (or written out) *)
      let needed =
        List.sort_uniq compare (write_set @ item_uses_deep rest)
      in
      let defs = List.sort_uniq compare (body_defs t @ body_defs e) in
      let merged =
        List.fold_left
          (fun acc v ->
            if not (List.mem v needed) then acc
            else
              let side m =
                match IM.find_opt v m with
                | Some h -> h
                | None -> (
                  match IM.find_opt v bindings with
                  | Some h -> h
                  | None -> read_of st v)
              in
              let ht = side bt and he = side be in
              if Builder.id ht = Builder.id he then IM.add v ht acc
              else begin
                let mt = Builder.inst st.b ~pred:(test, true) Isa.Mov in
                Builder.arc st.b ht mt Isa.Op0;
                let mf = Builder.inst st.b ~pred:(test, false) Isa.Mov in
                Builder.arc st.b he mf Isa.Op0;
                let j = Builder.inst st.b Isa.Mov in
                Builder.arc st.b mt j Isa.Op0;
                Builder.arc st.b mf j Isa.Op0;
                IM.add v j acc
              end)
          bindings defs
      in
      conv_items ctx merged rest
  in
  let final = conv_items [] IM.empty hb.body in
  (* register writes: every cross-block definition of this block *)
  List.iter
    (fun v ->
      let h =
        match IM.find_opt v final with
        | Some h -> h
        | None ->
          failwith
            (Printf.sprintf "Dataflow: write of v%d has no binding in %s" v hb.hlabel)
      in
      Builder.write st.b (Regalloc.reg_of ra v) [ h ])
    write_set;
  Builder.finish st.b

(* ------------------------------------------------------------------ *)
(* LSID-ordering relaxation                                            *)
(* ------------------------------------------------------------------ *)

(* Loads wait for every lower-LSID store to complete and stores commit in
   LSID order, so conservative sequential numbering serializes memory ops
   that can never touch the same bytes.  Renumber LSIDs by a topological
   order of the constraint graph that keeps

   - every store-store pair in its original order (commit order), and
   - every may-alias load/store pair in its original order,

   while letting provably-disjoint load/store pairs flip, preferring loads
   first so they stop waiting on unrelated stores.  Disjointness comes from
   {!Trips_analysis.Memsep}, re-derived independently by the translation
   validator. *)
let relax (b : Trips_edge.Block.t) : Trips_edge.Block.t * int =
  let module Memsep = Trips_analysis.Memsep in
  let ms = List.sort (fun a c -> compare a.Memsep.m_lsid c.Memsep.m_lsid) (Memsep.memops b) in
  let arr = Array.of_list ms in
  let n = Array.length arr in
  let dup = ref false in
  Array.iteri
    (fun i (m : Memsep.memop) ->
      if i > 0 && arr.(i - 1).Memsep.m_lsid = m.Memsep.m_lsid then dup := true)
    arr;
  if n < 2 || !dup then (b, 0)
  else begin
    let edge = Array.make_matrix n n false in
    let indeg = Array.make n 0 in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let a = arr.(i) and c = arr.(j) in
        let must =
          if a.Memsep.m_store && c.Memsep.m_store then true
          else if a.Memsep.m_store <> c.Memsep.m_store then
            not (Memsep.disjoint a c)
          else false
        in
        if must then begin
          edge.(i).(j) <- true;
          indeg.(j) <- indeg.(j) + 1
        end
      done
    done;
    (* greedy topological renumbering: among ready ops prefer loads, then
       original order, so the result is deterministic *)
    let order = Array.make n 0 in
    let placed = Array.make n false in
    for k = 0 to n - 1 do
      let better i best =
        match best with
        | None -> true
        | Some bi ->
          let li = not arr.(i).Memsep.m_store
          and lb = not arr.(bi).Memsep.m_store in
          (li && not lb) || (li = lb && i < bi)
      in
      let best = ref None in
      for i = 0 to n - 1 do
        if (not placed.(i)) && indeg.(i) = 0 && better i !best then best := Some i
      done;
      let i = match !best with Some i -> i | None -> assert false in
      placed.(i) <- true;
      order.(k) <- i;
      for j = 0 to n - 1 do
        if edge.(i).(j) then indeg.(j) <- indeg.(j) - 1
      done
    done;
    let newl = Hashtbl.create 8 in
    Array.iteri (fun k i -> Hashtbl.replace newl arr.(i).Memsep.m_lsid k) order;
    let flipped = ref 0 in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if arr.(i).Memsep.m_store <> arr.(j).Memsep.m_store then begin
          let ni = Hashtbl.find newl arr.(i).Memsep.m_lsid
          and nj = Hashtbl.find newl arr.(j).Memsep.m_lsid in
          if ni > nj then incr flipped
        end
      done
    done;
    if !flipped = 0 then (b, 0)
    else begin
      let insts =
        Array.map
          (fun (ins : Isa.inst) ->
            match ins.Isa.op with
            | Isa.Load (ty, w, l) ->
              { ins with Isa.op = Isa.Load (ty, w, Hashtbl.find newl l) }
            | Isa.Store (w, l) ->
              { ins with Isa.op = Isa.Store (w, Hashtbl.find newl l) }
            | _ -> ins)
          b.Trips_edge.Block.insts
      in
      let b' =
        {
          b with
          Trips_edge.Block.insts;
          placement = Array.copy b.Trips_edge.Block.placement;
        }
      in
      Trips_edge.Block.validate b';
      (b', !flipped)
    end
  end
