module Cfg = Trips_tir.Cfg

type item =
  | Ins of Cfg.ins
  | If of Cfg.operand * item list * item list
  | Exit of exit_kind
  | Lbl of string
      (* merge marker: the items that follow came from this CFG block;
         carries no semantics, but lets a validator walk the tree
         structurally against the original CFG *)

and exit_kind =
  | Ejump of string
  | Ecall of string * string
  | Eret

type hblock = {
  hlabel : string;
  body : item list;
}

type hfunc = {
  hname : string;
  hentry : string;
  hblocks : hblock list;
  pinned : (Cfg.vreg * int) list;
  hnvregs : int;
  hsynthetic : Cfg.block list;
      (* call-continuation blocks minted during formation, exposed so a
         translation validator can resolve [Lbl] markers that do not
         name an original CFG block *)
}

type budget = {
  max_ins : int;
  max_mem : int;
  tail_dup : int;
  max_exits : int;
  if_convert : bool;
}

let default_budget =
  { max_ins = 100; max_mem = 24; tail_dup = 12; max_exits = 7; if_convert = true }

let basic_block_budget =
  { max_ins = 100; max_mem = 24; tail_dup = 0; max_exits = 7; if_convert = false }

(* EDGE ABI pins (see Exec): r1 return value, r2..r9 arguments. *)
let abi_ret = 1
let abi_args = [ 2; 3; 4; 5; 6; 7; 8; 9 ]

let ins_cost (ins : Cfg.ins) ~depth =
  let base =
    match ins with
    | Cfg.Store _ -> 3 (* null-completion machinery *)
    | Cfg.Bin (_, _, a, b) ->
      let const_cost = function Cfg.Ci _ | Cfg.Sym _ -> 0 | _ -> 0 in
      1 + const_cost a + const_cost b
    | _ -> 1
  in
  if depth > 0 then base + 1 else base

let is_mem = function Cfg.Load _ | Cfg.Store _ -> true | _ -> false

type state = {
  fn : Cfg.func;
  budget : budget;
  preds : (string, int) Hashtbl.t;          (* predecessor counts *)
  synthetic : (string, Cfg.block) Hashtbl.t; (* call continuations *)
  (* continuation label per call site (block, nth call), so re-walking a
     block during tail duplication reuses one continuation instead of
     minting fresh ones forever *)
  site_labels : (string * int, string) Hashtbl.t;
  mutable ret_counter : int;
  v_ret : Cfg.vreg;
  v_args : Cfg.vreg array;
}

let find_block st label =
  match Hashtbl.find_opt st.synthetic label with
  | Some b -> b
  | None -> Cfg.find_block st.fn label

(* Per-hyperblock growth bookkeeping. *)
type grow = {
  mutable est_ins : int;
  mutable est_mem : int;
  mutable leaves : int;
  mutable seeds : string list;        (* labels that must become hyperblocks *)
  mutable path_labels : string list;  (* growth path, for cycle detection *)
}

let fresh_ret_label st =
  let k = st.ret_counter in
  st.ret_counter <- k + 1;
  Printf.sprintf "%s.ret%d" st.fn.name k

(* Convert the instructions of one CFG block, splitting at calls.  Returns
   the converted prefix and [Some exit] if a call cut the block. *)
let rec convert_ins st g depth acc ~ncalls (ins_list : Cfg.ins list)
    (term : Cfg.term) label : item list =
  match ins_list with
  | [] -> List.rev_append acc (convert_term st g depth term label)
  | Cfg.Call (dst, fname, args) :: rest ->
    if List.length args > List.length abi_args then
      failwith (Printf.sprintf "call to %s: too many arguments" fname);
    (* marshal arguments into pinned vregs *)
    let movs =
      List.mapi (fun i a -> Ins (Cfg.Mov (st.v_args.(i), a))) args
    in
    let site = (label, ncalls) in
    let retl =
      match Hashtbl.find_opt st.site_labels site with
      | Some l -> l
      | None ->
        let l = fresh_ret_label st in
        Hashtbl.replace st.site_labels site l;
        (* continuation: capture result, then the rest of this block *)
        let cont_ins =
          (match dst with Some d -> [ Cfg.Mov (d, Cfg.Reg st.v_ret) ] | None -> [])
          @ rest
        in
        Hashtbl.replace st.synthetic l { Cfg.label = l; ins = cont_ins; term };
        Hashtbl.replace st.preds l 1;
        l
    in
    if not (List.mem retl g.seeds) then g.seeds <- retl :: g.seeds;
    g.est_ins <- g.est_ins + List.length movs + 1;
    List.rev_append acc (movs @ [ Exit (Ecall (fname, retl)) ])
  | ins :: rest ->
    g.est_ins <- g.est_ins + ins_cost ins ~depth;
    if is_mem ins then g.est_mem <- g.est_mem + 1;
    convert_ins st g depth (Ins ins :: acc) ~ncalls rest term label

and convert_term st g depth (term : Cfg.term) _label : item list =
  match term with
  | Cfg.Ret None -> [ Exit Eret ]
  | Cfg.Ret (Some v) ->
    g.est_ins <- g.est_ins + 1;
    [ Ins (Cfg.Mov (st.v_ret, v)); Exit Eret ]
  | Cfg.Jmp l -> continue_to st g depth l
  | Cfg.Br (c, l1, l2) ->
    if st.budget.if_convert && g.leaves < st.budget.max_exits then begin
      g.leaves <- g.leaves + 1;
      g.est_ins <- g.est_ins + 1 (* the test *);
      let then_items = continue_to st g (depth + 1) l1 in
      let else_items = continue_to st g (depth + 1) l2 in
      [ If (c, then_items, else_items) ]
    end
    else begin
      g.leaves <- g.leaves + 1;
      g.est_ins <- g.est_ins + 3 (* test + two branches *);
      let exit_to l =
        if not (List.mem l g.seeds) then g.seeds <- l :: g.seeds;
        [ Exit (Ejump l) ]
      in
      [ If (c, exit_to l1, exit_to l2) ]
    end

(* Decide whether to merge the destination block or end with an exit. *)
and continue_to st g depth label : item list =
  let mergeable =
    match find_block st label with
    | exception Not_found -> false
    | b ->
      let npred = Option.value ~default:0 (Hashtbl.find_opt st.preds label) in
      let size = List.length b.ins in
      let small_enough =
        g.est_ins + size <= st.budget.max_ins && g.est_mem <= st.budget.max_mem
      in
      let single_or_dup = npred <= 1 || size <= st.budget.tail_dup in
      (* never merge a block that is on the current growth path: the
         back-edge becomes an exit to the (separate) seed *)
      let on_path = List.mem label g.path_labels in
      small_enough && single_or_dup && (not on_path)
      && (st.budget.if_convert || depth = 0)
  in
  if mergeable then begin
    let b = find_block st label in
    g.path_labels <- label :: g.path_labels;
    let items = convert_ins st g depth [] ~ncalls:0 b.ins b.term label in
    g.path_labels <- List.tl g.path_labels;
    Lbl label :: items
  end
  else begin
    if not (List.mem label g.seeds) then g.seeds <- label :: g.seeds;
    [ Exit (Ejump label) ]
  end

let form budget (fn : Cfg.func) : hfunc =
  let preds = Hashtbl.create 32 in
  List.iter
    (fun (b : Cfg.block) ->
      List.iter
        (fun l ->
          Hashtbl.replace preds l (1 + Option.value ~default:0 (Hashtbl.find_opt preds l)))
        (Cfg.successors b.term))
    fn.blocks;
  let v_ret = Cfg.fresh fn in
  let v_args = Array.init (List.length abi_args) (fun _ -> Cfg.fresh fn) in
  let st =
    { fn; budget; preds; synthetic = Hashtbl.create 8;
      site_labels = Hashtbl.create 8; ret_counter = 0; v_ret; v_args }
  in
  let formed = Hashtbl.create 32 in
  let order = ref [] in
  let entry_label = (Cfg.entry fn).label in
  let worklist = Queue.create () in
  Queue.push entry_label worklist;
  while not (Queue.is_empty worklist) do
    let label = Queue.pop worklist in
    if not (Hashtbl.mem formed label) then begin
      Hashtbl.replace formed label ();
      let g = { est_ins = 0; est_mem = 0; leaves = 1; seeds = []; path_labels = [ label ] } in
      let b = find_block st label in
      let body = convert_ins st g 0 [] ~ncalls:0 b.ins b.term label in
      (* entry block: bind parameters from the pinned argument registers *)
      let body =
        if label = entry_label then
          let binds =
            List.mapi (fun i (p, _) -> Ins (Cfg.Mov (p, Cfg.Reg st.v_args.(i)))) fn.params
          in
          binds @ body
        else body
      in
      order := { hlabel = label; body } :: !order;
      List.iter (fun s -> Queue.push s worklist) (List.rev g.seeds)
    end
  done;
  let pinned = (v_ret, abi_ret) :: List.mapi (fun i r -> (v_args.(i), r)) abi_args in
  {
    hname = fn.name;
    hentry = entry_label;
    hblocks = List.rev !order;
    pinned;
    hnvregs = fn.next_vreg;
    hsynthetic = Hashtbl.fold (fun _ b acc -> b :: acc) st.synthetic [];
  }

(* ------------------------------------------------------------------ *)
(* Analyses over hyperblock trees                                      *)
(* ------------------------------------------------------------------ *)

let rec body_defs (items : item list) : Cfg.vreg list =
  List.concat_map
    (function
      | Ins i -> Cfg.defs i
      | If (_, t, e) -> body_defs t @ body_defs e
      | Exit _ | Lbl _ -> [])
    items

(* Definitions guaranteed on every path to every exit: straight-line
   definitions plus the intersection of both arms of each [If].  This is
   the liveness kill set — a definition on only one predicated path must
   not kill, because the merge on the other path reads the old register
   value. *)
let rec must_defs (items : item list) : Cfg.vreg list =
  match items with
  | [] -> []
  | Ins i :: rest -> Cfg.defs i @ must_defs rest
  | Lbl _ :: rest -> must_defs rest
  | If (_, t, e) :: rest ->
    let dt = must_defs t and de = must_defs e in
    List.filter (fun v -> List.mem v de) dt @ must_defs rest
  | Exit _ :: _ -> []

let prefix_defs = must_defs

let body_uses_before_def (items : item list) : Cfg.vreg list =
  (* walk paths tracking defined-so-far; a use not yet defined is live-in *)
  let live = Hashtbl.create 16 in
  let rec go defined items =
    List.fold_left
      (fun defined item ->
        match item with
        | Ins i ->
          List.iter
            (function
              | Cfg.Reg r when not (List.mem r defined) -> Hashtbl.replace live r ()
              | _ -> ())
            (Cfg.uses i);
          Cfg.defs i @ defined
        | If (c, t, e) ->
          (match c with
          | Cfg.Reg r when not (List.mem r defined) -> Hashtbl.replace live r ()
          | _ -> ());
          let _ = go defined t in
          let _ = go defined e in
          (* conservatively, only defs on both paths dominate the rest;
             since If is always last this does not matter in practice *)
          defined
        | Exit _ | Lbl _ -> defined)
      defined items
  in
  let _ = go [] items in
  Hashtbl.fold (fun r () acc -> r :: acc) live []

let rec exits_of_items items =
  List.concat_map
    (function
      | Ins _ | Lbl _ -> []
      | If (_, t, e) -> exits_of_items t @ exits_of_items e
      | Exit k -> [ k ])
    items

let exits_of hb = exits_of_items hb.body

let rec pp_items ppf items =
  List.iter
    (fun item ->
      match item with
      | Ins i -> Format.fprintf ppf "%a@," Cfg.pp_ins i
      | If (c, t, e) ->
        Format.fprintf ppf "@[<v 2>if %a {@,%a@]@,}@[<v 2> else {@,%a@]@,}@,"
          Cfg.pp_operand c pp_items t pp_items e
      | Exit (Ejump l) -> Format.fprintf ppf "exit -> %s@," l
      | Exit (Ecall (f, r)) -> Format.fprintf ppf "call %s, resume %s@," f r
      | Exit Eret -> Format.fprintf ppf "return@,"
      | Lbl l -> Format.fprintf ppf "(* from %s *)@," l)
    items

let pp_hblock ppf hb =
  Format.fprintf ppf "@[<v 2>hyperblock %s:@,%a@]" hb.hlabel pp_items hb.body
