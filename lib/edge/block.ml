type read = {
  rreg : int;
  rtargets : Isa.target list;
}

type write = { wreg : int }

type t = {
  label : string;
  reads : read array;
  writes : write array;
  insts : Isa.inst array;
  mutable placement : int array;
}

type func = {
  fname : string;
  entry : string;
  blocks : t list;
}

type program = {
  globals : Trips_tir.Ast.global list;
  funcs : func list;
}

let find_func p name = List.find (fun f -> f.fname = name) p.funcs
let find_block f label = List.find (fun b -> b.label = label) f.blocks

let exits b =
  let out = ref [] in
  Array.iteri
    (fun i (ins : Isa.inst) ->
      match ins.op with Isa.Branch d -> out := (i, d) :: !out | _ -> ())
    b.insts;
  List.rev !out

let num_lsids b =
  let seen = Hashtbl.create 8 in
  Array.iter
    (fun (ins : Isa.inst) ->
      match ins.op with
      | Isa.Load (_, _, lsid) | Isa.Store (_, lsid) -> Hashtbl.replace seen lsid ()
      | _ -> ())
    b.insts;
  Hashtbl.length seen

let default_placement b =
  b.placement <- Array.init (Array.length b.insts) (fun i -> i mod Isa.num_ets)

exception Invalid of string * string

let fail b reason = raise (Invalid (b.label, reason))

let validate b =
  let n = Array.length b.insts in
  if n > Isa.max_insts then fail b (Printf.sprintf "too many instructions (%d)" n);
  if Array.length b.reads > Isa.max_reads then fail b "too many reads";
  if Array.length b.writes > Isa.max_writes then fail b "too many writes";
  if num_lsids b > Isa.max_lsids then fail b "too many LSIDs";
  Array.iteri
    (fun i (ins : Isa.inst) ->
      match ins.op with
      | Isa.Load (_, _, lsid) | Isa.Store (_, lsid) ->
        if lsid < 0 || lsid >= Isa.max_lsids then
          fail b (Printf.sprintf "I%d LSID %d out of range" i lsid)
      | _ -> ())
    b.insts;
  let ex = exits b in
  if ex = [] then fail b "no exit branch";
  if List.length ex > Isa.max_exits then fail b "too many exits";
  (* per-slot producer bookkeeping *)
  let producers = Array.make n [] in           (* port lists per inst *)
  let write_producers = Array.make (Array.length b.writes) 0 in
  (* unpredicated producers per port: two of them on one port is a
     guaranteed double delivery at run time, only producers in opposite
     predicate arms may legally share a port *)
  let unpred_producers : (int * Isa.slot, int) Hashtbl.t = Hashtbl.create 16 in
  let src_unpredicated src =
    src < 0 (* read slots always deliver *)
    || (match b.insts.(src).Isa.pred with Isa.Unpred -> true | _ -> false)
  in
  let record src = function
    | Isa.To_inst (i, s) ->
      if i < 0 || i >= n then fail b (Printf.sprintf "target I%d out of range" i);
      if i = src then fail b (Printf.sprintf "I%d targets itself" i);
      producers.(i) <- s :: producers.(i);
      if src_unpredicated src then begin
        let k = (i, s) in
        let c = 1 + Option.value ~default:0 (Hashtbl.find_opt unpred_producers k) in
        if c > 1 then
          fail b
            (Printf.sprintf "I%d.%s has %d unpredicated producers" i
               (Isa.slot_name s) c);
        Hashtbl.replace unpred_producers k c
      end
    | Isa.To_write w ->
      if w < 0 || w >= Array.length b.writes then
        fail b (Printf.sprintf "write target W%d out of range" w);
      write_producers.(w) <- write_producers.(w) + 1
  in
  Array.iteri
    (fun idx (ins : Isa.inst) ->
      if List.length ins.targets > 2 then fail b (Printf.sprintf "I%d has >2 targets" idx);
      (match ins.op with
      | Isa.Branch _ when ins.targets <> [] -> fail b "branch with targets"
      | Isa.Store _ when ins.targets <> [] -> fail b "store with targets"
      | _ -> ());
      List.iter (record idx) ins.targets)
    b.insts;
  Array.iteri
    (fun _ (r : read) ->
      if r.rreg < 0 || r.rreg >= Isa.num_regs then fail b "read register out of range";
      if List.length r.rtargets > 2 then fail b "read with >2 targets";
      List.iter (record (-1)) r.rtargets)
    b.reads;
  Array.iter
    (fun (w : write) ->
      if w.wreg < 0 || w.wreg >= Isa.num_regs then fail b "write register out of range")
    b.writes;
  (* every declared write slot must have at least one producer *)
  Array.iteri
    (fun w count ->
      if count = 0 then fail b (Printf.sprintf "write slot W%d has no producer" w))
    write_producers;
  (* operand ports must have producers matching arity; predicated
     instructions need a predicate producer *)
  Array.iteri
    (fun idx (ins : Isa.inst) ->
      let ports = producers.(idx) in
      let has s = List.mem s ports in
      let arity = Isa.operand_arity ins in
      if arity >= 1 && not (has Isa.Op0) then
        fail b (Printf.sprintf "I%d missing op0 producer" idx);
      if arity >= 2 && not (has Isa.Op1) then
        fail b (Printf.sprintf "I%d missing op1 producer" idx);
      if arity < 2 && has Isa.Op1 then
        fail b (Printf.sprintf "I%d has op1 producer but arity %d" idx arity);
      if arity < 1 && has Isa.Op0 then
        fail b (Printf.sprintf "I%d has op0 producer but arity %d" idx arity);
      match ins.pred with
      | Isa.Unpred ->
        if has Isa.OpPred then fail b (Printf.sprintf "unpredicated I%d receives predicate" idx)
      | Isa.On_true p | Isa.On_false p ->
        if not (has Isa.OpPred) then fail b (Printf.sprintf "I%d missing predicate producer" idx);
        if p < 0 || p >= n then fail b (Printf.sprintf "I%d predicate producer out of range" idx))
    b.insts;
  (* placement sanity *)
  if Array.length b.placement <> n then fail b "placement length mismatch";
  Array.iter
    (fun et ->
      if et < 0 || et >= Isa.num_ets then fail b "placement tile out of range")
    b.placement

let validate_program p =
  let labels = Hashtbl.create 64 in
  List.iter
    (fun f ->
      List.iter
        (fun b ->
          if Hashtbl.mem labels b.label then
            raise (Invalid (b.label, "duplicate block label"));
          Hashtbl.replace labels b.label ())
        f.blocks)
    p.funcs;
  List.iter
    (fun f ->
      if not (List.exists (fun b -> b.label = f.entry) f.blocks) then
        raise (Invalid (f.entry, "missing entry block for " ^ f.fname));
      List.iter
        (fun b ->
          validate b;
          List.iter
            (fun (_, dest) ->
              match (dest : Isa.exit_dest) with
              | Isa.Xjump l ->
                if not (Hashtbl.mem labels l) then
                  raise (Invalid (b.label, "exit to unknown block " ^ l))
              | Isa.Xcall (callee, retl) ->
                if not (List.exists (fun f -> f.fname = callee) p.funcs) then
                  raise (Invalid (b.label, "call to unknown function " ^ callee));
                if not (Hashtbl.mem labels retl) then
                  raise (Invalid (b.label, "return label unknown: " ^ retl))
              | Isa.Xret -> ())
            (exits b))
        f.blocks)
    p.funcs

let pp ppf b =
  Format.fprintf ppf "@[<v 2>block %s (%d insts, %d reads, %d writes):@," b.label
    (Array.length b.insts) (Array.length b.reads) (Array.length b.writes);
  Array.iteri
    (fun i (r : read) ->
      Format.fprintf ppf "R%d: read r%d -> %a@," i r.rreg
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") Isa.pp_target)
        r.rtargets)
    b.reads;
  Array.iteri (fun i ins -> Format.fprintf ppf "I%d: %a@," i Isa.pp_inst ins) b.insts;
  Array.iteri (fun i (w : write) -> Format.fprintf ppf "W%d: write r%d@," i w.wreg) b.writes;
  Format.fprintf ppf "@]"

let pp_program ppf p =
  List.iter
    (fun f ->
      Format.fprintf ppf "function %s (entry %s)@." f.fname f.entry;
      List.iter (fun b -> Format.fprintf ppf "%a@." pp b) f.blocks)
    p.funcs

let size_stats b =
  (Array.length b.insts, Array.length b.reads, Array.length b.writes, List.length (exits b))
