type h = Hinst of int | Hread of int

type proto_inst = {
  mutable p_op : Isa.opcode;
  p_pred : (int * bool) option;    (* predicate producer instruction *)
  p_imm : int64 option;
}

type t = {
  label : string;
  mutable insts : proto_inst list;        (* reversed *)
  mutable n_insts : int;
  mutable reads : int list;               (* arch regs, reversed *)
  mutable n_reads : int;
  mutable writes : (int * h list) list;   (* arch reg, producers; reversed *)
  mutable arcs : (h * int * Isa.slot) list; (* producer, consumer inst, port *)
  mutable lsid : int;
}

let create label =
  { label; insts = []; n_insts = 0; reads = []; n_reads = 0; writes = [];
    arcs = []; lsid = 0 }

let assign_lsid t (op : Isa.opcode) =
  match op with
  | Isa.Load (ty, w, l) when l < 0 ->
    let l = t.lsid in
    t.lsid <- l + 1;
    Isa.Load (ty, w, l)
  | Isa.Store (w, l) when l < 0 ->
    let l = t.lsid in
    t.lsid <- l + 1;
    Isa.Store (w, l)
  | op -> op

let inst t ?pred ?imm op =
  let p_pred =
    match pred with
    | None -> None
    | Some (Hinst i, pol) -> Some (i, pol)
    | Some (Hread _, _) -> invalid_arg "Builder.inst: read handles cannot predicate"
  in
  let op = assign_lsid t op in
  let idx = t.n_insts in
  t.insts <- { p_op = op; p_pred; p_imm = imm } :: t.insts;
  t.n_insts <- idx + 1;
  Hinst idx

let read t reg =
  let idx = t.n_reads in
  t.reads <- reg :: t.reads;
  t.n_reads <- idx + 1;
  Hread idx

let id = function Hinst i -> (i * 2) + 2 | Hread r -> -((r * 2) + 2)

let write t reg hs = t.writes <- (reg, hs) :: t.writes

let arc t producer consumer port =
  match consumer with
  | Hinst i -> t.arcs <- (producer, i, port) :: t.arcs
  | Hread _ -> invalid_arg "Builder.arc: consumer must be an instruction"

let finish t : Block.t =
  let insts = Array.of_list (List.rev t.insts) in
  let reads = Array.of_list (List.rev t.reads) in
  let writes = Array.of_list (List.rev t.writes) in
  let arcs = List.rev t.arcs in
  (* Collect raw target lists per producer.  Write feeds count as targets. *)
  let extra = ref [] in               (* fanout movs appended after insts *)
  let n_extra = ref 0 in
  let base = Array.length insts in
  let targets : (int, Isa.target list) Hashtbl.t = Hashtbl.create 64 in
  (* producer key: inst index (fanout movs use indices >= base);
     reads are keyed negatively as -(r+1) *)
  let key_of = function Hinst i -> i | Hread r -> -(r + 1) in
  let add_target key tgt =
    let cur = Option.value ~default:[] (Hashtbl.find_opt targets key) in
    Hashtbl.replace targets key (tgt :: cur)
  in
  List.iter (fun (p, c, port) -> add_target (key_of p) (Isa.To_inst (c, port))) arcs;
  Array.iteri
    (fun w (_, producers) ->
      List.iter (fun p -> add_target (key_of p) (Isa.To_write w)) producers)
    writes;
  (* predicate arcs implied by ?pred *)
  Array.iteri
    (fun i (pi : proto_inst) ->
      match pi.p_pred with
      | Some (p, _) -> add_target p (Isa.To_inst (i, Isa.OpPred))
      | None -> ())
    insts;
  (* Fanout: replace >2-target lists by balanced mov trees.  Fanout movs
     are unpredicated: they fire when their input arrives. *)
  let new_mov () =
    let idx = base + !n_extra in
    incr n_extra;
    extra := { p_op = Isa.Mov; p_pred = None; p_imm = None } :: !extra;
    idx
  in
  let rec tree_targets (tgts : Isa.target list) : Isa.target list =
    if List.length tgts <= 2 then tgts
    else begin
      (* split into two halves, giving each half a mov if it needs one *)
      let rec split k acc = function
        | rest when k = 0 -> (List.rev acc, rest)
        | x :: rest -> split (k - 1) (x :: acc) rest
        | [] -> (List.rev acc, [])
      in
      let half = (List.length tgts + 1) / 2 in
      let a, b = split half [] tgts in
      let mk part =
        match part with
        | [ single ] -> single
        | _ ->
          let m = new_mov () in
          Hashtbl.replace targets m (tree_targets part);
          Isa.To_inst (m, Isa.Op0)
      in
      [ mk a; mk b ]
    end
  in
  let final_targets key =
    match Hashtbl.find_opt targets key with
    | None -> []
    | Some tgts -> tree_targets (List.rev tgts)
  in
  (* Resolve instruction targets first (movs may be created on demand;
     their own target lists are already final). *)
  let inst_targets = Array.init (Array.length insts) (fun i -> final_targets i) in
  let read_targets = Array.init (Array.length reads) (fun r -> final_targets (-(r + 1))) in
  let extra_insts = Array.of_list (List.rev !extra) in
  let all_n = Array.length insts + Array.length extra_insts in
  let final =
    Array.init all_n (fun i ->
        let pi, tgts =
          if i < base then (insts.(i), inst_targets.(i))
          else
            let pi = extra_insts.(i - base) in
            ( pi,
              match Hashtbl.find_opt targets i with
              | Some l -> l  (* already final (built by tree_targets) *)
              | None -> [] )
        in
        let pred =
          match pi.p_pred with
          | None -> Isa.Unpred
          | Some (p, true) -> Isa.On_true p
          | Some (p, false) -> Isa.On_false p
        in
        { Isa.op = pi.p_op; pred; imm = pi.p_imm; targets = tgts })
  in
  let block =
    {
      Block.label = t.label;
      reads = Array.mapi (fun i reg -> { Block.rreg = reg; rtargets = read_targets.(i) }) reads;
      writes = Array.map (fun (reg, _) -> { Block.wreg = reg }) writes;
      insts = final;
      placement = [||];
    }
  in
  Block.default_placement block;
  Block.validate block;
  block
