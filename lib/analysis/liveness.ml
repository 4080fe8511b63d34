(* Cross-block analyses over the block-level CFG.

   Register state persists in the register file between blocks, so
   block-level dataflow is clean: a block's read slots are its uses, its
   write slots its (unconditional, block-atomic) defs.  Three analyses:

   - branch-target resolution: every exit destination names a block of the
     same function (calls: a known function plus a return block);
   - use-before-def: a read slot naming a register that no block of the
     function ever writes (and that the ABI does not provide: r0 scratch,
     r1 return value, r2-r9 arguments) is a naming bug.  The criterion is
     deliberately not path-sensitive: the register file is zero-initialized
     and the compiler's predicated merges legitimately read registers whose
     only writes are on other paths or later loop iterations — those reads
     observe a well-defined 0, not garbage;
   - dead-write: a backward liveness pass — a write slot whose register no
     successor path reads before overwriting it is wasted register-file
     bandwidth (warning: it is legal, just useless). *)

module Isa = Trips_edge.Isa
module Block = Trips_edge.Block
module IS = Set.Make (Int)

(* EDGE ABI (see Exec/Hyperblock): r1 return value, r2..r9 arguments,
   r0 conventional scratch. *)
let abi_ret = 1
let abi_args = [ 2; 3; 4; 5; 6; 7; 8; 9 ]
let abi_entry_regs = IS.of_list (0 :: abi_ret :: abi_args)

let diag ~fname ?block ?inst ?fix ?(sev = Diag.Error) cls msg =
  Diag.make ~sev ~pass:"liveness" ~fname ?block ?inst ?fix cls msg

let block_uses (b : Block.t) =
  Array.fold_left (fun s (r : Block.read) -> IS.add r.Block.rreg s) IS.empty b.reads

let block_defs (b : Block.t) =
  Array.fold_left (fun s (w : Block.write) -> IS.add w.Block.wreg s) IS.empty b.writes

type cfg = {
  blocks : Block.t array;
  index : (string, int) Hashtbl.t;
  succs : int list array;        (* intra-function edges *)
  has_call : bool array;
  has_ret : bool array;
}

(* Build the function CFG; unknown destinations become diagnostics, known
   ones edges.  [known_funcs = None] skips callee resolution (used when
   verifying one function before the rest of the program exists). *)
let build_cfg ~fname ?known_funcs (f : Block.func) : cfg * Diag.t list =
  let blocks = Array.of_list f.Block.blocks in
  let index = Hashtbl.create 32 in
  Array.iteri
    (fun i (b : Block.t) -> Hashtbl.replace index b.Block.label i)
    blocks;
  let out = ref [] in
  let emit d = out := d :: !out in
  let succs = Array.make (Array.length blocks) [] in
  let has_call = Array.make (Array.length blocks) false in
  let has_ret = Array.make (Array.length blocks) false in
  Array.iteri
    (fun i (b : Block.t) ->
      List.iter
        (fun (ii, dest) ->
          let edge label what =
            match Hashtbl.find_opt index label with
            | Some j -> succs.(i) <- j :: succs.(i)
            | None ->
              emit
                (diag ~fname ~block:b.Block.label ~inst:ii "branch-target"
                   (Printf.sprintf "%s %s does not name a block of %s" what label
                      fname)
                   ~fix:"exits may only leave a function through call/return")
          in
          match (dest : Isa.exit_dest) with
          | Isa.Xjump l -> edge l "jump target"
          | Isa.Xcall (callee, retl) ->
            has_call.(i) <- true;
            edge retl "return label";
            (match known_funcs with
            | Some fs when not (List.mem callee fs) ->
              emit
                (diag ~fname ~block:b.Block.label ~inst:ii "branch-target"
                   (Printf.sprintf "call to unknown function %s" callee))
            | _ -> ())
          | Isa.Xret -> has_ret.(i) <- true)
        (Block.exits b))
    blocks;
  ({ blocks; index; succs; has_call; has_ret }, List.rev !out)

let check_func ~fname ?known_funcs (f : Block.func) : Diag.t list =
  let cfg, out0 = build_cfg ~fname ?known_funcs f in
  let out = ref (List.rev out0) in
  let emit d = out := d :: !out in
  let nb = Array.length cfg.blocks in
  let entry =
    match Hashtbl.find_opt cfg.index f.Block.entry with
    | Some i -> Some i
    | None ->
      emit
        (diag ~fname "branch-target"
           (Printf.sprintf "entry block %s does not exist" f.Block.entry));
      None
  in
  (* reachability from the entry *)
  let reachable = Array.make nb false in
  (match entry with
  | None -> ()
  | Some e ->
    let stack = ref [ e ] in
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | i :: rest ->
        stack := rest;
        if not reachable.(i) then begin
          reachable.(i) <- true;
          List.iter (fun j -> stack := j :: !stack) cfg.succs.(i)
        end
    done);
  Array.iteri
    (fun i (b : Block.t) ->
      if entry <> None && not reachable.(i) then
        emit
          (diag ~fname ~block:b.Block.label ~sev:Diag.Warning "unreachable"
             "no path from the function entry reaches this block"
             ~fix:"delete the block or branch to it"))
    cfg.blocks;
  let uses = Array.map block_uses cfg.blocks in
  let defs = Array.map block_defs cfg.blocks in
  (* use-before-def: a register no block of the function ever writes.  A
     call makes abi_ret available again, so count it as defined too. *)
  let ever_defined =
    let d = Array.fold_left IS.union abi_entry_regs defs in
    if Array.exists (fun c -> c) cfg.has_call then IS.add abi_ret d else d
  in
  Array.iteri
    (fun i (b : Block.t) ->
      IS.iter
        (fun r ->
          if not (IS.mem r ever_defined) then
            emit
              (diag ~fname ~block:b.Block.label "use-before-def"
                 (Printf.sprintf "r%d is read but never written by %s" r fname)
                 ~fix:"initialize the register before first use"))
        uses.(i))
    cfg.blocks;
  (* backward liveness for dead writes *)
  let exit_uses i =
    let u = if cfg.has_ret.(i) then IS.singleton abi_ret else IS.empty in
    if cfg.has_call.(i) then IS.union u (IS.of_list (abi_ret :: abi_args)) else u
  in
  let live_in = Array.make nb IS.empty in
  let live_out = Array.make nb IS.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = nb - 1 downto 0 do
      let o =
        List.fold_left
          (fun acc j -> IS.union acc live_in.(j))
          (exit_uses i) cfg.succs.(i)
      in
      let inn = IS.union uses.(i) (IS.diff o defs.(i)) in
      if not (IS.equal o live_out.(i)) then begin
        live_out.(i) <- o;
        changed := true
      end;
      if not (IS.equal inn live_in.(i)) then begin
        live_in.(i) <- inn;
        changed := true
      end
    done
  done;
  Array.iteri
    (fun i (b : Block.t) ->
      IS.iter
        (fun r ->
          if not (IS.mem r live_out.(i)) then
            emit
              (diag ~fname ~block:b.Block.label ~sev:Diag.Warning "dead-write"
                 (Printf.sprintf "r%d is written but no successor reads it" r)
                 ~fix:"drop the register from the block's write set"))
        defs.(i))
    cfg.blocks;
  List.rev !out
