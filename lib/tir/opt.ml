let is_const = function Cfg.Ci _ | Cfg.Cf _ -> true | Cfg.Reg _ | Cfg.Sym _ -> false

let const_value = function
  | Cfg.Ci i -> Ty.Vi i
  | Cfg.Cf f -> Ty.Vf f
  | Cfg.Reg _ | Cfg.Sym _ -> invalid_arg "const_value"

let operand_of_value = function
  | Ty.Vi i -> Cfg.Ci i
  | Ty.Vf f -> Cfg.Cf f

(* Division by a constant zero must keep trapping at runtime, so skip it. *)
let foldable_binop (op : Ast.binop) b =
  match op with
  | Ast.Div | Ast.Rem -> ( match b with Cfg.Ci 0L -> false | _ -> true)
  | _ -> true

let constfold (f : Cfg.func) =
  let fold_ins ins =
    match ins with
    | Cfg.Bin (op, d, a, b) when is_const a && is_const b && foldable_binop op b -> (
      match Semantics.binop op (const_value a) (const_value b) with
      | v -> Cfg.Mov (d, operand_of_value v)
      | exception Semantics.Trap _ -> ins)
    | Cfg.Un (op, d, a) when is_const a -> (
      match Semantics.unop op (const_value a) with
      | v -> Cfg.Mov (d, operand_of_value v)
      | exception Semantics.Trap _ -> ins)
    (* algebraic identities *)
    | Cfg.Bin (Ast.Add, d, a, Cfg.Ci 0L) | Cfg.Bin (Ast.Add, d, Cfg.Ci 0L, a)
    | Cfg.Bin (Ast.Sub, d, a, Cfg.Ci 0L)
    | Cfg.Bin (Ast.Or, d, a, Cfg.Ci 0L) | Cfg.Bin (Ast.Or, d, Cfg.Ci 0L, a)
    | Cfg.Bin (Ast.Xor, d, a, Cfg.Ci 0L) | Cfg.Bin (Ast.Xor, d, Cfg.Ci 0L, a)
    | Cfg.Bin (Ast.Shl, d, a, Cfg.Ci 0L) | Cfg.Bin (Ast.Lsr, d, a, Cfg.Ci 0L)
    | Cfg.Bin (Ast.Asr, d, a, Cfg.Ci 0L) ->
      Cfg.Mov (d, a)
    | Cfg.Bin (Ast.Mul, d, a, Cfg.Ci 1L) | Cfg.Bin (Ast.Mul, d, Cfg.Ci 1L, a)
    | Cfg.Bin (Ast.Div, d, a, Cfg.Ci 1L) ->
      Cfg.Mov (d, a)
    | Cfg.Bin (Ast.Mul, d, _, Cfg.Ci 0L) | Cfg.Bin (Ast.Mul, d, Cfg.Ci 0L, _)
    | Cfg.Bin (Ast.And, d, _, Cfg.Ci 0L) | Cfg.Bin (Ast.And, d, Cfg.Ci 0L, _) ->
      Cfg.Mov (d, Cfg.Ci 0L)
    | _ -> ins
  in
  List.iter (fun (b : Cfg.block) -> b.ins <- List.map fold_ins b.ins) f.blocks

let mentions_reg (o : Cfg.operand) r = match o with Cfg.Reg x -> x = r | _ -> false

module IH = Hashtbl.Make (Int)

(* Add [x] to the list [tbl] keeps for [r]. *)
let index_add tbl r x =
  IH.replace tbl r (x :: Option.value ~default:[] (IH.find_opt tbl r))

(* Block-local propagation: map vreg -> known operand.  An entry is killed
   when any register it mentions is redefined; [copies_of] indexes the
   entries that are copies of a register, so a kill touches only those.
   Its lists may hold entries rebound since, which the kill re-checks. *)
let copyprop (f : Cfg.func) =
  let known : Cfg.operand IH.t = IH.create 16 in
  let copies_of : Cfg.vreg list IH.t = IH.create 16 in
  let resolve op =
    match op with
    | Cfg.Reg r -> ( match IH.find_opt known r with Some o -> o | None -> op)
    | _ -> op
  in
  let kill d =
    IH.remove known d;
    match IH.find_opt copies_of d with
    | None -> ()
    | Some ks ->
      IH.remove copies_of d;
      List.iter
        (fun k ->
          match IH.find_opt known k with
          | Some src when mentions_reg src d -> IH.remove known k
          | _ -> ())
        ks
  in
  let step ins =
    let ins = Cfg.map_ins_operands resolve ins in
    List.iter kill (Cfg.defs ins);
    (match ins with
    | Cfg.Mov (d, src) when not (mentions_reg src d) ->
      IH.replace known d src;
      (match src with Cfg.Reg s -> index_add copies_of s d | _ -> ())
    | _ -> ());
    ins
  in
  List.iter
    (fun (b : Cfg.block) ->
      IH.clear known;
      IH.clear copies_of;
      b.ins <- List.map step b.ins;
      b.term <- Cfg.map_term_operands resolve b.term)
    f.blocks

(* Block-local CSE over pure ops and loads. *)
type expr_key =
  | Kbin of Ast.binop * Cfg.operand * Cfg.operand
  | Kun of Ast.unop * Cfg.operand
  | Kload of Ty.t * Ty.width * Cfg.operand * int

let key_mentions key d =
  match key with
  | Kbin (_, a, b) -> mentions_reg a d || mentions_reg b d
  | Kun (_, a) | Kload (_, _, a, _) -> mentions_reg a d

(* [keys_of] indexes every available expression under its result register
   and each register its key mentions, and [loads] lists the load keys
   recorded since memory was last killed, so a kill visits only the
   entries it may remove.  Index lists may hold entries removed or rebound
   since, which the kill re-checks against the table. *)
let cse (f : Cfg.func) =
  let avail : (expr_key, Cfg.vreg) Hashtbl.t = Hashtbl.create 16 in
  let keys_of : expr_key list IH.t = IH.create 16 in
  let loads = ref [] in
  let kill_reg d =
    match IH.find_opt keys_of d with
    | None -> ()
    | Some ks ->
      IH.remove keys_of d;
      List.iter
        (fun k ->
          match Hashtbl.find_opt avail k with
          | Some v when v = d || key_mentions k d -> Hashtbl.remove avail k
          | _ -> ())
        ks
  in
  let kill_memory () =
    List.iter (Hashtbl.remove avail) !loads;
    loads := []
  in
  let record key d =
    Hashtbl.replace avail key d;
    index_add keys_of d key;
    let operand = function Cfg.Reg r -> index_add keys_of r key | _ -> () in
    match key with
    | Kbin (_, a, b) ->
      operand a;
      operand b
    | Kun (_, a) -> operand a
    | Kload (_, _, a, _) ->
      loads := key :: !loads;
      operand a
  in
  (* An expression keyed on its own destination (v3 = v3 + 1) must not be
     recorded: after the write, the key no longer denotes the result. *)
  let lookup_or_record key d ins =
    match Hashtbl.find_opt avail key with
    | Some r ->
      kill_reg d;
      Cfg.Mov (d, Cfg.Reg r)
    | None ->
      kill_reg d;
      if not (key_mentions key d) then record key d;
      ins
  in
  let step ins =
    match ins with
    | Cfg.Bin (op, d, a, bb) -> lookup_or_record (Kbin (op, a, bb)) d ins
    | Cfg.Un (op, d, a) -> lookup_or_record (Kun (op, a)) d ins
    | Cfg.Load (t, w, d, a, off) -> lookup_or_record (Kload (t, w, a, off)) d ins
    | Cfg.Mov (d, _) ->
      kill_reg d;
      ins
    | Cfg.Store _ ->
      kill_memory ();
      ins
    | Cfg.Call (d, _, _) ->
      kill_memory ();
      Option.iter kill_reg d;
      ins
  in
  List.iter
    (fun (b : Cfg.block) ->
      Hashtbl.clear avail;
      IH.clear keys_of;
      loads := [];
      b.ins <- List.map step b.ins)
    f.blocks

let dce (f : Cfg.func) =
  let changed = ref true in
  while !changed do
    changed := false;
    let used : (Cfg.vreg, unit) Hashtbl.t = Hashtbl.create 64 in
    let mark = function Cfg.Reg r -> Hashtbl.replace used r () | _ -> () in
    List.iter
      (fun (b : Cfg.block) ->
        List.iter (fun ins -> List.iter mark (Cfg.uses ins)) b.ins;
        List.iter mark (Cfg.term_uses b.term))
      f.blocks;
    let pure_dead ins =
      match ins with
      | Cfg.Bin (op, d, _, b) ->
        let trapping =
          match op with
          | Ast.Div | Ast.Rem -> ( match b with Cfg.Ci z when z <> 0L -> false | _ -> true)
          | _ -> false
        in
        (not trapping) && not (Hashtbl.mem used d)
      | Cfg.Un (_, d, _) | Cfg.Mov (d, _) -> not (Hashtbl.mem used d)
      | Cfg.Load (_, _, d, _, _) -> not (Hashtbl.mem used d)
      | Cfg.Store _ | Cfg.Call _ -> false
    in
    List.iter
      (fun (b : Cfg.block) ->
        let before = List.length b.ins in
        b.ins <- List.filter (fun i -> not (pure_dead i)) b.ins;
        if List.length b.ins <> before then changed := true)
      f.blocks
  done

let simplify_branches (f : Cfg.func) =
  List.iter
    (fun (b : Cfg.block) ->
      match b.term with
      | Cfg.Br (Cfg.Ci c, l1, l2) -> b.term <- Cfg.Jmp (if c <> 0L then l1 else l2)
      | Cfg.Br (Cfg.Cf c, l1, l2) -> b.term <- Cfg.Jmp (if c <> 0. then l1 else l2)
      | _ -> ())
    f.blocks;
  (* drop blocks made unreachable *)
  match f.blocks with
  | [] -> ()
  | entry :: _ ->
    let reached = Hashtbl.create 16 in
    let tbl = Hashtbl.create 16 in
    List.iter (fun (b : Cfg.block) -> Hashtbl.replace tbl b.label b) f.blocks;
    let rec visit l =
      if not (Hashtbl.mem reached l) then begin
        Hashtbl.add reached l ();
        match Hashtbl.find_opt tbl l with
        | Some b -> List.iter visit (Cfg.successors b.term)
        | None -> ()
      end
    in
    visit entry.label;
    f.blocks <- List.filter (fun (b : Cfg.block) -> Hashtbl.mem reached b.label) f.blocks

(* ------------------------------------------------------------------ *)
(* Global passes over analysis facts                                   *)
(* ------------------------------------------------------------------ *)

(* The abstract-interpretation results the global passes consume.  The
   analysis lives in trips_analysis (which depends on this library), so the
   facts cross the boundary as closures over a neutral vocabulary: program
   points are (block label, instruction index) and memory locations are
   (root operand, byte offset, width) triples. *)
type absfacts = {
  af_const : string -> int -> Cfg.operand option;
      (** the instruction's definition provably has this constant value *)
  af_branch : string -> bool option;
      (** the block's branch condition is provably nonzero / zero *)
  af_sep : Cfg.operand * int * Ty.width -> Cfg.operand * int * Ty.width -> bool;
      (** the two accesses provably never overlap (must-not-alias) *)
}

let no_facts =
  {
    af_const = (fun _ _ -> None);
    af_branch = (fun _ -> None);
    af_sep = (fun _ _ -> false);
  }

(* One global rewrite, named by its program point so the translation
   validator can replay the application and discharge each fact
   independently. *)
type gfact =
  | Gconst of string * int * Cfg.vreg * Cfg.operand
      (** block, ins index: replace the def with [Mov d c] *)
  | Gbranch of string * bool
      (** block: fold [Br] to the taken side *)
  | Grle of string * int * Cfg.vreg * Cfg.operand
      (** block, ins index: the load is redundant; its value is the operand *)
  | Gdse of string * int  (** block, ins index: the store is dead *)

let pp_gfact ppf = function
  | Gconst (l, i, d, c) ->
    Format.fprintf ppf "const %s/%d: v%d = %a" l i d Cfg.pp_operand c
  | Gbranch (l, dir) -> Format.fprintf ppf "branch %s: %b" l dir
  | Grle (l, i, d, c) ->
    Format.fprintf ppf "rle %s/%d: v%d = %a" l i d Cfg.pp_operand c
  | Gdse (l, i) -> Format.fprintf ppf "dse %s/%d" l i

(* Memory access keys: root operand + static offset + width.  Root equality
   is syntactic; the vreg-redefinition kills below keep [Reg] roots honest. *)
type mkey = { mroot : Cfg.operand; moff : int; mw : Ty.width; mty : Ty.t }

(* [(=)] on operands, without the polymorphic walk: a [Cf nan] root is
   unequal to itself, as it is under [(=)]. *)
let operand_eq (a : Cfg.operand) (b : Cfg.operand) =
  match (a, b) with
  | Cfg.Reg x, Cfg.Reg y -> x = y
  | Cfg.Ci x, Cfg.Ci y -> Int64.equal x y
  | Cfg.Cf x, Cfg.Cf y -> x = y
  | Cfg.Sym x, Cfg.Sym y -> String.equal x y
  | _ -> false

(* The order [Stdlib.compare] gives operands and keys, field by field with
   monomorphic comparisons. *)
let operand_rank = function Cfg.Reg _ -> 0 | Cfg.Ci _ -> 1 | Cfg.Cf _ -> 2 | Cfg.Sym _ -> 3

let compare_operand (a : Cfg.operand) (b : Cfg.operand) =
  match (a, b) with
  | Cfg.Reg x, Cfg.Reg y -> Int.compare x y
  | Cfg.Ci x, Cfg.Ci y -> Int64.compare x y
  | Cfg.Cf x, Cfg.Cf y -> Float.compare x y
  | Cfg.Sym x, Cfg.Sym y -> String.compare x y
  | _ -> Int.compare (operand_rank a) (operand_rank b)

let ty_rank = function Ty.I64 -> 0 | Ty.F64 -> 1

let compare_mkey a b =
  let c = compare_operand a.mroot b.mroot in
  if c <> 0 then c
  else
    let c = Int.compare a.moff b.moff in
    if c <> 0 then c
    else
      let c = Int.compare (Ty.bytes_of_width a.mw) (Ty.bytes_of_width b.mw) in
      if c <> 0 then c else Int.compare (ty_rank a.mty) (ty_rank b.mty)

(* --- global constant propagation + branch folding ------------------- *)

let gather_const facts (f : Cfg.func) : gfact list =
  let out = ref [] in
  List.iter
    (fun (b : Cfg.block) ->
      List.iteri
        (fun idx ins ->
          match ins with
          (* Pure computations only: rewriting a trapping Div/Rem or a Load
             would change behaviour beyond the value. [Mov] of a constant is
             already folded form. *)
          | Cfg.Bin ((Ast.Div | Ast.Rem), _, _, _) -> ()
          | Cfg.Bin (_, d, _, _) | Cfg.Un (_, d, _) -> (
            match facts.af_const b.label idx with
            | Some c -> out := Gconst (b.label, idx, d, c) :: !out
            | None -> ())
          | Cfg.Mov (d, src) when not (is_const src) -> (
            match facts.af_const b.label idx with
            | Some c -> out := Gconst (b.label, idx, d, c) :: !out
            | None -> ())
          | _ -> ())
        b.ins;
      match b.term with
      | Cfg.Br (c, _, _) when not (is_const c) -> (
        match facts.af_branch b.label with
        | Some dir -> out := Gbranch (b.label, dir) :: !out
        | None -> ())
      | _ -> ())
    f.blocks;
  List.rev !out

(* --- global redundant-load elimination ------------------------------ *)

(* Forward "available loads" dataflow.  An entry [key -> Reg r] means: on
   every path reaching this point, memory at [key] holds the value of [r]
   (established by a load into [r] with neither an intervening may-alias
   store/call nor a redefinition of [r] or the key's root register).
   Load-to-load only: store-to-load forwarding would need the stored
   operand's type, which vregs do not carry syntactically. *)
module MKeyMap = Map.Make (struct
  type t = mkey

  let compare = compare_mkey
end)

let rle_transfer facts (avail : Cfg.operand MKeyMap.t) idx ins emit =
  let kill_reg d m =
    MKeyMap.filter
      (fun k v -> not (mentions_reg k.mroot d || mentions_reg v d))
      m
  in
  match ins with
  | Cfg.Load (ty, w, d, a, off) ->
    let key = { mroot = a; moff = off; mw = w; mty = ty } in
    (match MKeyMap.find_opt key avail with
    | Some v -> emit (Grle (fst idx, snd idx, d, v))
    | None -> ());
    let avail = kill_reg d avail in
    if mentions_reg a d then avail
    else MKeyMap.add key (Cfg.Reg d) avail
  | Cfg.Store (w, a, off, _) ->
    let skey = { mroot = a; moff = off; mw = w; mty = Ty.I64 } in
    MKeyMap.filter
      (fun k _ ->
        facts.af_sep (skey.mroot, skey.moff, skey.mw) (k.mroot, k.moff, k.mw))
      avail
  | Cfg.Call (d, _, _) ->
    ignore d;
    MKeyMap.empty
  | ins -> List.fold_left (fun m d -> kill_reg d m) avail (Cfg.defs ins)

let gather_rle facts (f : Cfg.func) : gfact list =
  (* block entry states: None = not yet reached (top), Some m = known map *)
  let entry : (string, Cfg.operand MKeyMap.t option) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter (fun (b : Cfg.block) -> Hashtbl.replace entry b.label None) f.blocks;
  (match f.blocks with
  | [] -> ()
  | e :: _ -> Hashtbl.replace entry e.label (Some MKeyMap.empty));
  let meet a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some m1, Some m2 ->
      Some
        (MKeyMap.merge
           (fun _ v1 v2 ->
             match (v1, v2) with
             | Some x, Some y when operand_eq x y -> Some x
             | _ -> None)
           m1 m2)
  in
  let exit_of b_entry (b : Cfg.block) =
    List.fold_left
      (fun (m, i) ins ->
        (rle_transfer facts m (b.label, i) ins (fun _ -> ()), i + 1))
      (b_entry, 0) b.ins
    |> fst
  in
  (* A round changes an entry only when its bindings change, so the loop
     stops at the fixpoint: at most 5 rounds, counting the confirming
     one, across the registry and 5000 fuzz programs at C/H/BB (as for
     [gather_dse]).  The cap of 64 is a safety bound. *)
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 64 do
    changed := false;
    incr rounds;
    List.iter
      (fun (b : Cfg.block) ->
        match Hashtbl.find entry b.label with
        | None -> ()
        | Some st ->
          let ex = exit_of st b in
          List.iter
            (fun succ ->
              match Hashtbl.find_opt entry succ with
              | None -> ()
              | Some cur ->
                let nw = meet cur (Some ex) in
                if not (Option.equal (MKeyMap.equal operand_eq) nw cur) then begin
                  Hashtbl.replace entry succ nw;
                  changed := true
                end)
            (Cfg.successors b.term))
      f.blocks
  done;
  let out = ref [] in
  List.iter
    (fun (b : Cfg.block) ->
      match Hashtbl.find entry b.label with
      | None -> ()
      | Some st ->
        ignore
          (List.fold_left
             (fun (m, i) ins ->
               ( rle_transfer facts m (b.label, i) ins (fun g ->
                     out := g :: !out),
                 i + 1 ))
             (st, 0) b.ins))
    f.blocks;
  List.rev !out

(* --- global dead-store elimination ---------------------------------- *)

(* Backward "overwritten before observed" dataflow.  A key in the set means:
   on every path from here, the full byte range of the key is overwritten
   before any load, call or function exit can observe it.  A store whose
   range is covered by such a key is dead. *)
module MSet = Set.Make (struct
  type t = mkey

  let compare = compare_mkey
end)

let covers (outer : mkey) (inner : mkey) =
  operand_eq outer.mroot inner.mroot
  && outer.moff <= inner.moff
  && outer.moff + Ty.bytes_of_width outer.mw
     >= inner.moff + Ty.bytes_of_width inner.mw

let dse_transfer facts (ob : MSet.t) idx ins emit =
  let kill_reg d s = MSet.filter (fun k -> not (mentions_reg k.mroot d)) s in
  match ins with
  | Cfg.Store (w, a, off, _) ->
    let key = { mroot = a; moff = off; mw = w; mty = Ty.I64 } in
    if MSet.exists (fun k -> covers k key) ob then emit (Gdse (fst idx, snd idx));
    MSet.add key ob
  | Cfg.Load (_, w, d, a, off) ->
    let lkey = { mroot = a; moff = off; mw = w; mty = Ty.I64 } in
    let ob =
      MSet.filter
        (fun k ->
          facts.af_sep (k.mroot, k.moff, k.mw) (lkey.mroot, lkey.moff, lkey.mw))
        ob
    in
    kill_reg d ob
  | Cfg.Call _ -> MSet.empty
  | ins -> List.fold_left (fun s d -> kill_reg d s) ob (Cfg.defs ins)

let gather_dse facts (f : Cfg.func) : gfact list =
  (* the finite lattice: sets of store keys occurring in the function *)
  let universe = ref MSet.empty in
  List.iter
    (fun (b : Cfg.block) ->
      List.iter
        (function
          | Cfg.Store (w, a, off, _) ->
            universe :=
              MSet.add { mroot = a; moff = off; mw = w; mty = Ty.I64 } !universe
          | _ -> ())
        b.ins)
    f.blocks;
  let entry : (string, MSet.t) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (b : Cfg.block) -> Hashtbl.replace entry b.label !universe)
    f.blocks;
  let entry_of (b : Cfg.block) exit_ob =
    List.fold_left
      (fun (ob, i) ins -> (dse_transfer facts ob (b.label, i) ins (fun _ -> ()), i - 1))
      (exit_ob, List.length b.ins - 1)
      (List.rev b.ins)
    |> fst
  in
  let exit_ob (b : Cfg.block) =
    match Cfg.successors b.term with
    | [] -> MSet.empty
    | succs ->
      List.fold_left
        (fun acc s ->
          MSet.inter acc
            (Option.value ~default:MSet.empty (Hashtbl.find_opt entry s)))
        !universe succs
  in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 64 do
    changed := false;
    incr rounds;
    List.iter
      (fun (b : Cfg.block) ->
        let en = entry_of b (exit_ob b) in
        if not (MSet.equal en (Hashtbl.find entry b.label)) then begin
          Hashtbl.replace entry b.label en;
          changed := true
        end)
      (List.rev f.blocks)
  done;
  let out = ref [] in
  List.iter
    (fun (b : Cfg.block) ->
      ignore
        (List.fold_left
           (fun (ob, i) ins ->
             (dse_transfer facts ob (b.label, i) ins (fun g -> out := g :: !out), i - 1))
           (exit_ob b, List.length b.ins - 1)
           (List.rev b.ins)))
    f.blocks;
  List.rev !out

(* --- gather + apply -------------------------------------------------- *)

let gather_global facts (f : Cfg.func) : gfact list =
  gather_const facts f @ gather_rle facts f @ gather_dse facts f

(* Apply a gathered fact set.  All indices refer to the pre-application
   instruction lists, so rewrites are positional and deletions happen last;
   the same replay runs inside the translation validator. *)
let apply_global (f : Cfg.func) (gfs : gfact list) =
  let rewrites : (string * int, gfact) Hashtbl.t = Hashtbl.create 16 in
  let branches : (string, bool) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (function
      | Gconst (l, i, _, _) as g -> Hashtbl.replace rewrites (l, i) g
      | Grle (l, i, _, _) as g -> Hashtbl.replace rewrites (l, i) g
      | Gdse (l, i) as g -> Hashtbl.replace rewrites (l, i) g
      | Gbranch (l, dir) -> Hashtbl.replace branches l dir)
    gfs;
  List.iter
    (fun (b : Cfg.block) ->
      b.ins <-
        List.filteri (fun i _ ->
            match Hashtbl.find_opt rewrites (b.label, i) with
            | Some (Gdse _) -> false
            | _ -> true)
          (List.mapi
             (fun i ins ->
               match Hashtbl.find_opt rewrites (b.label, i) with
               | Some (Gconst (_, _, d, c)) | Some (Grle (_, _, d, c)) ->
                 Cfg.Mov (d, c)
               | _ -> ins)
             b.ins);
      match (b.term, Hashtbl.find_opt branches b.label) with
      | Cfg.Br (_, l1, l2), Some dir -> b.term <- Cfg.Jmp (if dir then l1 else l2)
      | _ -> ())
    f.blocks

let run_global facts (f : Cfg.func) : gfact list =
  let gfs = gather_global facts f in
  if gfs <> [] then apply_global f gfs;
  gfs

(* The fixpoint test's view of a function: one line per token that
   [Cfg.pp_func] prints (the function name, each block label with its
   colon, each instruction, each terminator), spelled by the same
   [Cfg.add_ins]/[Cfg.add_term].  Both forms are injective in that token
   sequence, so two states get equal fingerprints exactly when they print
   equally; this one skips [Format]'s layout engine. *)
let fingerprint (f : Cfg.func) =
  let buf = Buffer.create 4096 in
  let line add x =
    add buf x;
    Buffer.add_char buf '\n'
  in
  line Buffer.add_string f.name;
  List.iter
    (fun (b : Cfg.block) ->
      Buffer.add_string buf b.label;
      line Buffer.add_string ":";
      List.iter (line Cfg.add_ins) b.ins;
      line Cfg.add_term b.term)
    f.blocks;
  Buffer.contents buf

(* Far above the most rounds any function has needed, counting the one
   that confirms the fixpoint: 7 across the registry at every preset, 17
   across 5000 fuzz-generated programs through the front end at C and H.
   Reaching it leaves a correct function that a further round could still
   shrink. *)
let max_rounds = 64

let run (f : Cfg.func) =
  (* iterate to a fixpoint: later passes expose work for earlier ones,
     e.g. CSE introduces moves that copyprop then propagates *)
  let rec go n prev =
    if n > 0 then begin
      constfold f;
      copyprop f;
      cse f;
      dce f;
      simplify_branches f;
      let now = fingerprint f in
      if now <> prev then go (n - 1) now
    end
  in
  go max_rounds (fingerprint f)

let run_program (p : Cfg.program) = List.iter run p.funcs
