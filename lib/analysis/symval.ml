(* Symbolic value language shared by every translation-validation check.

   One term language represents values on both sides of a compiler pass:
   TIR regions, EDGE dataflow blocks and RISC instruction streams all
   evaluate into [t].  Equivalence then reduces to syntactic equality of
   normalized terms, which is what makes the validator fast: the smart
   constructors below fold constants through [Trips_tir.Semantics] (the
   same oracle the interpreters use), canonicalize commutative operands,
   re-associate address arithmetic and forward stores to loads, so both
   sides of a correct translation collapse to the same tree.

   Terms are compared with [Stdlib.compare].  [Cf] therefore equates
   0.0 with -0.0 and nan with nan; where bit patterns matter (memory),
   float values are explicitly wrapped in [Fbits] first. *)

module Ast = Trips_tir.Ast
module Ty = Trips_tir.Ty
module Semantics = Trips_tir.Semantics

(* Interface variables: the unknowns a block region is symbolic over. *)
type var =
  | Vreg of int (* TIR virtual register (CFG-level checks) *)
  | Varch of int (* EDGE architectural register *)
  | Vint of int (* RISC integer register *)
  | Vflt of int (* RISC floating-point register *)
  | Vret of int * int (* call event [id]; channel 0 = int, 1 = float *)

type t =
  | Ci of int64
  | Cf of float
  | Var of var
  | Bin of Ast.binop * t * t
  | Un of Ast.unop * t
  | Fbits of t (* Int64.bits_of_float *)
  | Fofbits of t (* Int64.float_of_bits *)
  | Sel of Ty.t * Ty.width * t * mem (* load addr from a memory chain *)

(* A memory is a chain of stores over a named initial memory.  Store
   values are always raw bit patterns ([Fbits]-wrapped floats); loads
   reinterpret.  [Mcall] is a havoc barrier: nothing forwards past it. *)
and mem =
  | Minit of int (* 0 = program memory, 1 = stack *)
  | Mstore of mem * Ty.width * t * t (* older chain, width, addr, raw bits *)
  | Mcall of int * mem

let mem_program = 0
let mem_stack = 1

let compare_t (a : t) (b : t) = Stdlib.compare a b
let equal (a : t) (b : t) = a == b || compare_t a b = 0

(* ------------------------------------------------------------------ *)
(* Hash-consing                                                        *)
(* ------------------------------------------------------------------ *)

(* Substitution builds terms that share sub-DAGs in memory, but
   [Stdlib.compare] (and any naive recursive walk) unfolds the sharing
   into a tree — exponential on e.g. unrolled FFT butterflies where
   every value feeds two consumers.  Interning every composite node
   makes structurally equal terms physically equal, so the polymorphic
   compare short-circuits on [==] at every shared node and costs only
   the difference between terms.  Correctness never depends on the
   tables' contents — a cleared table merely loses sharing — so
   {!reset_intern} may be called between independent checks to bound
   their size. *)

module HT = Hashtbl.Make (struct
  type nonrec t = t

  let equal (a : t) (b : t) = a == b || Stdlib.compare a b = 0

  (* Deeper than Hashtbl.hash's default 10-node budget: sibling terms
     of a big block share shallow structure, and colliding buckets pay
     a structural compare per entry. *)
  let hash (t : t) = Hashtbl.hash_param 32 128 t
end)

module HM = Hashtbl.Make (struct
  type nonrec t = mem

  let equal (a : mem) (b : mem) = a == b || Stdlib.compare a b = 0
  let hash (m : mem) = Hashtbl.hash_param 32 128 m
end)

(* The tables are domain-local: [trips_serve] validates on several
   domains at once, and a table shared between them could be reset or
   resized under a concurrent lookup.  They start small because the
   validator resets them before every block check (about 2000 per sweep
   of the compile set at C, the largest interning about 100 terms),
   and a reset clears every bucket of the initial size. *)
let intern_t : t HT.t Domain.DLS.key = Domain.DLS.new_key (fun () -> HT.create 128)
let intern_m : mem HM.t Domain.DLS.key = Domain.DLS.new_key (fun () -> HM.create 32)

let reset_intern () =
  HT.reset (Domain.DLS.get intern_t);
  HM.reset (Domain.DLS.get intern_m)

let hc (t : t) : t =
  let tbl = Domain.DLS.get intern_t in
  match HT.find_opt tbl t with
  | Some t' -> t'
  | None ->
    HT.add tbl t t;
    t

let hc_mem (m : mem) : mem =
  let tbl = Domain.DLS.get intern_m in
  match HM.find_opt tbl m with
  | Some m' -> m'
  | None ->
    HM.add tbl m m;
    m

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)
(* ------------------------------------------------------------------ *)

let binop_is_float = function
  | Ast.Fadd | Ast.Fsub | Ast.Fmul | Ast.Fdiv -> true
  | _ -> false

(* Does the term denote a float value?  [None] when undeterminable
   (a bare [Vreg]/[Varch] could hold either class at runtime). *)
let is_float = function
  | Ci _ -> Some false
  | Cf _ -> Some true
  | Var (Vflt _) -> Some true
  | Var (Vint _) -> Some false
  | Var (Vret (_, ch)) -> Some (ch = 1)
  | Var (Vreg _) | Var (Varch _) -> None
  | Bin (op, _, _) -> Some (binop_is_float op)
  | Un (op, _) -> (
    match op with Ast.Fneg | Ast.Itof -> Some true | _ -> Some false)
  | Fbits _ -> Some false
  | Fofbits _ -> Some true
  | Sel (ty, _, _, _) -> Some (ty = Ty.F64)

let value_of = function Ci n -> Some (Ty.Vi n) | Cf f -> Some (Ty.Vf f) | _ -> None

let const_of = function Ty.Vi n -> Ci n | Ty.Vf f -> Cf f

(* ------------------------------------------------------------------ *)
(* Smart constructors                                                  *)
(* ------------------------------------------------------------------ *)

let rec bin op a b =
  (* Constant folding through the reference semantics.  Division by a
     zero constant traps at runtime, so it must stay symbolic. *)
  let folded =
    match (value_of a, value_of b) with
    | Some va, Some vb -> (
      try Some (const_of (Semantics.binop op va vb))
      with Semantics.Trap _ | Invalid_argument _ -> None)
    | _ -> None
  in
  match folded with
  | Some c -> c
  | None -> (
    match (op, a, b) with
    (* Canonicalize subtraction of a constant into addition so stack
       and spill address arithmetic re-associates. *)
    | Ast.Sub, _, Ci n -> bin Ast.Add a (Ci (Int64.neg n))
    | _ ->
      let a, b =
        if Ast.commutative op && compare_t a b < 0 then (b, a) else (a, b)
      in
      (match (op, a, b) with
      | Ast.Add, x, Ci 0L -> x
      | Ast.Add, Bin (Ast.Add, x, Ci m), Ci n -> bin Ast.Add x (Ci (Int64.add m n))
      | Ast.Mul, x, Ci 1L -> x
      | Ast.Mul, _, Ci 0L -> Ci 0L
      | Ast.And, _, Ci 0L -> Ci 0L
      | Ast.And, x, Ci -1L -> x
      | Ast.Or, x, Ci 0L -> x
      | Ast.Or, x, Ci -1L -> ignore x; Ci (-1L)
      | Ast.Xor, x, Ci 0L -> x
      | (Ast.Shl | Ast.Lsr | Ast.Asr), x, Ci n when Int64.logand n 63L = 0L -> x
      | _ -> hc (Bin (op, a, b))))

let un op a =
  match value_of a with
  | Some va -> (
    try const_of (Semantics.unop op va)
    with Semantics.Trap _ | Invalid_argument _ -> hc (Un (op, a)))
  | None -> (
    match op with
    | Ast.Zext Ty.W8 | Ast.Sext Ty.W8 -> a
    | _ -> hc (Un (op, a)))

let fbits = function
  | Cf f -> Ci (Int64.bits_of_float f)
  | Fofbits x -> x
  | t -> hc (Fbits t)

let fofbits = function
  | Ci n -> Cf (Int64.float_of_bits n)
  | Fbits x -> x
  | t -> hc (Fofbits t)

(* Raw bit pattern of a term, for storing to memory.  Unknown-class
   terms are left bare; both sides of a check build the same wrapping
   because they build the same terms. *)
let to_bits t = if is_float t = Some true then fbits t else t

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)
(* ------------------------------------------------------------------ *)

(* Decompose an address into (symbolic root, constant offset). *)
let addr_parts = function
  | Ci n -> (None, n)
  | Bin (Ast.Add, x, Ci n) -> (Some x, n)
  | t -> (Some t, 0L)

let same_root a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> compare_t x y = 0
  | _ -> false

let ranges_disjoint o1 s1 o2 s2 =
  Int64.add o1 (Int64.of_int s1) <= o2 || Int64.add o2 (Int64.of_int s2) <= o1

let store m w addr v = hc_mem (Mstore (m, w, addr, v))
let mcall id m = hc_mem (Mcall (id, m))

(* Reinterpret forwarded raw bits [v] as a load of [ty]/[w] would. *)
let reinterpret ty w v =
  match ty with
  | Ty.I64 -> un (Ast.Zext w) v
  | Ty.F64 -> fofbits v

(* A load: forward from the youngest exactly-matching store, skip
   provably disjoint stores, and otherwise keep the (partially peeled)
   chain symbolic.  Sound because skipping disjoint stores preserves
   semantics and both sides peel deterministically. *)
let rec sel ty w addr m =
  match m with
  | Mstore (older, w', a', v) ->
    let r, o = addr_parts addr and r', o' = addr_parts a' in
    if same_root r r' then
      if o = o' && w = w' then reinterpret ty w v
      else if ranges_disjoint o (Ty.bytes_of_width w) o' (Ty.bytes_of_width w')
      then sel ty w addr older
      else hc (Sel (ty, w, addr, m))
    else hc (Sel (ty, w, addr, m))
  | Minit _ | Mcall _ -> hc (Sel (ty, w, addr, m))

(* ------------------------------------------------------------------ *)
(* Conditions and path conditions                                      *)
(* ------------------------------------------------------------------ *)

(* Canonical decision key for a branch/predicate condition.  The EDGE
   converter materializes truthiness tests as [t != 0], so both sides
   must fork on the same key: strip [Ne x 0] and flip through
   [Eq x 0].  Valid for any integer x since truthy(x) = (x <> 0). *)
let rec cond_key t =
  match t with
  | Bin (Ast.Ne, x, Ci 0L) -> cond_key x
  | Bin (Ast.Eq, x, Ci 0L) ->
    let k, pol = cond_key x in
    (k, not pol)
  | _ -> (t, true)

type pc = (t * bool) list

exception Fork of t
(** Raised by {!decide} when the path condition does not determine the
    condition; the path driver explores both extensions. *)

let rec pc_assoc k = function
  | [] -> None
  | (k', b) :: rest -> if compare_t k k' = 0 then Some b else pc_assoc k rest

let decide (pc : pc) t =
  let k, pol = cond_key t in
  match k with
  | Ci n -> (n <> 0L) = pol
  | Cf f -> (f <> 0.) = pol
  | _ -> (
    match pc_assoc k pc with Some b -> b = pol | None -> raise (Fork k))

(* ------------------------------------------------------------------ *)
(* Substitution (used by seeded concretization)                        *)
(* ------------------------------------------------------------------ *)

(* Memoized per call so shared sub-DAGs are rewritten once; interning
   makes the structural memo keys behave like identity keys. *)
let subst f t0 =
  let memo = HT.create 256 and memo_m = HM.create 32 in
  let rec go t =
    match HT.find_opt memo t with
    | Some r -> r
    | None ->
      let r =
        match t with
        | Ci _ | Cf _ -> t
        | Var v -> ( match f v with Some c -> c | None -> t)
        | Bin (op, a, b) -> bin op (go a) (go b)
        | Un (op, a) -> un op (go a)
        | Fbits a -> fbits (go a)
        | Fofbits a -> fofbits (go a)
        | Sel (ty, w, a, m) -> sel ty w (go a) (go_mem m)
      in
      HT.add memo t r;
      r
  and go_mem m =
    match HM.find_opt memo_m m with
    | Some r -> r
    | None ->
      let r =
        match m with
        | Minit _ -> m
        | Mstore (older, w, a, v) -> store (go_mem older) w (go a) (go v)
        | Mcall (id, older) -> mcall id (go_mem older)
      in
      HM.add memo_m m r;
      r
  in
  go t0

(* Free-variable collection with a visited set, again so the walk is
   linear in the DAG rather than its unfolding. *)
let vars acc0 t0 =
  let seen = Hashtbl.create 32 in
  List.iter (fun v -> Hashtbl.replace seen v ()) acc0;
  let acc = ref acc0 in
  let vis_t = HT.create 256 and vis_m = HM.create 32 in
  let rec go t =
    if not (HT.mem vis_t t) then begin
      HT.add vis_t t ();
      match t with
      | Ci _ | Cf _ -> ()
      | Var v ->
        if not (Hashtbl.mem seen v) then begin
          Hashtbl.replace seen v ();
          acc := v :: !acc
        end
      | Bin (_, a, b) ->
        go a;
        go b
      | Un (_, a) | Fbits a | Fofbits a -> go a
      | Sel (_, _, a, m) ->
        go a;
        go_mem m
    end
  and go_mem m =
    if not (HM.mem vis_m m) then begin
      HM.add vis_m m ();
      match m with
      | Minit _ -> ()
      | Mstore (older, _, a, v) ->
        go a;
        go v;
        go_mem older
      | Mcall (_, older) -> go_mem older
    end
  in
  go t0;
  !acc

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let var_name = function
  | Vreg v -> Printf.sprintf "v%d" v
  | Varch r -> Printf.sprintf "r%d" r
  | Vint r -> Printf.sprintf "R%d" r
  | Vflt r -> Printf.sprintf "F%d" r
  | Vret (id, ch) -> Printf.sprintf "ret%d.%s" id (if ch = 1 then "f" else "i")

let rec pp ppf = function
  | Ci n -> Format.fprintf ppf "%Ld" n
  | Cf f -> Format.fprintf ppf "%h" f
  | Var v -> Format.pp_print_string ppf (var_name v)
  | Bin (op, a, b) ->
    Format.fprintf ppf "(%a %s %a)" pp a (Ast.binop_name op) pp b
  | Un (op, a) -> Format.fprintf ppf "%s(%a)" (Ast.unop_name op) pp a
  | Fbits a -> Format.fprintf ppf "bits(%a)" pp a
  | Fofbits a -> Format.fprintf ppf "float(%a)" pp a
  | Sel (ty, w, a, m) ->
    Format.fprintf ppf "%s.%d[%a|%a]" (Ty.to_string ty) (Ty.bytes_of_width w)
      pp a pp_mem m

and pp_mem ppf = function
  | Minit 0 -> Format.pp_print_string ppf "M"
  | Minit 1 -> Format.pp_print_string ppf "S"
  | Minit k -> Format.fprintf ppf "M%d" k
  | Mstore (older, w, a, v) ->
    Format.fprintf ppf "%a;st%d %a:=%a" pp_mem older (Ty.bytes_of_width w) pp a
      pp v
  | Mcall (id, older) -> Format.fprintf ppf "%a;call%d" pp_mem older id

let to_string t = Format.asprintf "%a" pp t
