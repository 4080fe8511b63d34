(* Global abstract interpretation over the TIR CFG.

   Flow-sensitive per-function fixpoint computing, per program point, an
   interval + known-bits + address-base abstraction of every vreg.  The
   fixpoint results feed three consumers:

   - [Diag] findings (pass:"absint"): provably dead branches, always-
     trapping divisions, out-of-range shift counts, must-not-alias pairs;
   - [facts]: the [Opt.absfacts] closure record driving the global
     optimization passes (constant/branch folding, redundant-load and
     dead-store elimination);
   - the [absint] experiment / CLI, via [stats] and the query API.

   Interprocedural-lite: function parameters stay top (entry functions can
   be called with arbitrary arguments by the harness), while return-value
   summaries iterate downward from top for a bounded number of rounds —
   each round is sound because round k+1 is evaluated under round k's
   over-approximation, and round 0 (top) is trivially sound. *)

module Cfg = Trips_tir.Cfg
module Ast = Trips_tir.Ast
module Ty = Trips_tir.Ty
module Opt = Trips_tir.Opt
module IM = Map.Make (Int)

(* ------------------------------------------------------------------ *)
(* The abstract value                                                  *)
(* ------------------------------------------------------------------ *)

type bset = Bnone | Bone of string | Bmany

type aval = {
  ik : bool;  (** definitely an integer (or address) value *)
  base : bset;  (** symbolic base the numeric part offsets from *)
  lo : int64;  (** signed inclusive lower bound of the numeric part *)
  hi : int64;
  kz : int64;  (** bit mask of bits known to be zero *)
  ko : int64;  (** bit mask of bits known to be one *)
}

let top_i = { ik = true; base = Bnone; lo = Int64.min_int; hi = Int64.max_int; kz = 0L; ko = 0L }
let top_any = { top_i with ik = false }
let of_base g = { top_i with base = Bone g; lo = 0L; hi = 0L }

(* Highest set bit position among bits 0..62, -1 when none is set (bit 63
   is ignored).  A six-step binary search over the native int [n lsr 1],
   which fits 62 bits, because this runs in every [norm]. *)
let msb (n : int64) =
  let rec go x r s =
    if s = 0 then r else if x lsr s <> 0 then go (x lsr s) (r + s) (s / 2) else go x r (s / 2)
  in
  let x = Int64.to_int (Int64.shift_right_logical (Int64.logand n Int64.max_int) 1) in
  if x <> 0 then go x 1 32 else if Int64.logand n 1L <> 0L then 0 else -1

(* Monomorphic bounds: the polymorphic [Stdlib.min]/[max] would compare
   boxed int64s generically on every join. *)
let min (a : int64) b = if a <= b then a else b
let max (a : int64) b = if a >= b then a else b

(* Re-establish internal consistency: singleton ranges pin the bits, a
   known-zero sign bit pins the range, known-one bits raise the floor.
   Each step sees the fields the previous ones produced; [v] itself comes
   back when nothing changes, so the common case allocates nothing. *)
let norm (v : aval) : aval =
  if not v.ik then top_any
  else if v.base <> Bnone then v
  else begin
    let single = v.lo = v.hi in
    let kz = if single then Int64.lognot v.lo else v.kz in
    let ko = if single then v.lo else v.ko in
    (* bits above the magnitude of a non-negative range are zero *)
    let kz =
      if v.lo >= 0L && v.hi >= 0L then
        let m = msb v.hi in
        if m >= 62 then kz else Int64.logor kz (Int64.shift_left (-1L) (m + 1))
      else kz
    in
    (* a known-zero sign bit bounds the range; known-one bits floor it *)
    let nonneg = Int64.logand kz Int64.min_int <> 0L in
    let lo = if nonneg then max v.lo 0L else v.lo in
    let hi = if nonneg then min v.hi (Int64.lognot kz) else v.hi in
    let lo = if ko >= 0L && ko <> 0L && lo >= 0L then max lo ko else lo in
    if lo = v.lo && hi = v.hi && kz = v.kz && ko = v.ko then v
    else { v with lo; hi; kz; ko }
  end

let singleton n = norm { top_i with lo = n; hi = n }
let is_singleton v = v.ik && v.base = Bnone && v.lo = v.hi
let bounded lo hi = norm { top_i with lo; hi }

let join_base a b =
  match (a, b) with
  | Bnone, Bnone -> Bnone
  | Bone g, Bone h when g = h -> Bone g
  | _ -> Bmany

let join a b =
  (* the field-wise join of [a] with itself is [a] again *)
  if a == b then norm a
  else
    norm
      {
        ik = a.ik && b.ik;
        base = join_base a.base b.base;
        lo = min a.lo b.lo;
        hi = max a.hi b.hi;
        kz = Int64.logand a.kz b.kz;
        ko = Int64.logand a.ko b.ko;
      }

(* Widening: any still-moving bound jumps to infinity so chains are finite;
   the bit masks already only shrink under join. *)
let widen (old : aval) (next : aval) =
  let j = join old next in
  let lo = if j.lo < old.lo then Int64.min_int else old.lo in
  let hi = if j.hi > old.hi then Int64.max_int else old.hi in
  norm (if lo = j.lo && hi = j.hi then j else { j with lo; hi })

let leq a b =
  a == b
  || (b.ik <= a.ik)
     && (match (a.base, b.base) with
        | _, Bmany -> true
        | Bnone, Bnone -> true
        | Bone g, Bone h -> g = h
        | _ -> false)
     && a.lo >= b.lo && a.hi <= b.hi
     && Int64.logand a.kz b.kz = b.kz
     && Int64.logand a.ko b.ko = b.ko

(* [leq a b && leq b a], which holds exactly when every field is equal *)
let equal a b =
  a == b
  || a.ik = b.ik
     && (match (a.base, b.base) with
        | Bnone, Bnone | Bmany, Bmany -> true
        | Bone g, Bone h -> String.equal g h
        | _ -> false)
     && a.lo = b.lo && a.hi = b.hi && a.kz = b.kz && a.ko = b.ko

let never_zero v =
  v.ik && v.base = Bnone && (v.lo > 0L || v.hi < 0L || v.ko <> 0L)

let always_zero v = v.ik && v.base = Bnone && v.lo = 0L && v.hi = 0L

(* ------------------------------------------------------------------ *)
(* Interval arithmetic helpers (overflow-checked)                      *)
(* ------------------------------------------------------------------ *)

let add_ovf a b =
  let s = Int64.add a b in
  if (a >= 0L) = (b >= 0L) && (s >= 0L) <> (a >= 0L) then None else Some s

let sub_ovf a b =
  let s = Int64.sub a b in
  if (a >= 0L) <> (b >= 0L) && (s >= 0L) <> (a >= 0L) then None else Some s

let mul_ovf a b =
  if a = 0L || b = 0L then Some 0L
  else
    let p = Int64.mul a b in
    if Int64.div p b = a && not (a = -1L && b = Int64.min_int) && not (b = -1L && a = Int64.min_int)
    then Some p
    else None

(* ------------------------------------------------------------------ *)
(* Seeded breakage for the mutation test suite                          *)
(* ------------------------------------------------------------------ *)

(* Each bug mode corrupts one transfer function / oracle so the test suite
   can demonstrate that a broken analysis is caught by a known-answer
   diagnostic or by the validator's independent re-derivation. *)
type bug =
  | Bug_and_mask  (** [x & m] claims [0, m-1] instead of [0, m] *)
  | Bug_refine_flip  (** branch refinement applies the wrong polarity *)
  | Bug_sep_overlap  (** same-base overlapping ranges claimed disjoint *)
  | Bug_add_wrap  (** addition ignores signed overflow *)
  | Bug_cmp_flip  (** [<] decides with the operands swapped *)

let bug_of_int = function
  | 1 -> Some Bug_and_mask
  | 2 -> Some Bug_refine_flip
  | 3 -> Some Bug_sep_overlap
  | 4 -> Some Bug_add_wrap
  | 5 -> Some Bug_cmp_flip
  | _ -> None

let num_bugs = 5

(* ------------------------------------------------------------------ *)
(* Transfer functions                                                  *)
(* ------------------------------------------------------------------ *)

type tctx = { bug : bug option }

let t_add (ctx : tctx) a b =
  if not (a.ik && b.ik) then top_any
  else
    let base =
      match (a.base, b.base) with
      | Bnone, Bnone -> Bnone
      | Bone g, Bnone | Bnone, Bone g -> Bone g
      | _ -> Bmany
    in
    match (add_ovf a.lo b.lo, add_ovf a.hi b.hi) with
    | Some lo, Some hi -> norm { top_i with base; lo; hi }
    | _ when ctx.bug = Some Bug_add_wrap ->
      norm { top_i with base; lo = Int64.add a.lo b.lo; hi = Int64.add a.hi b.hi }
    | _ -> norm { top_i with base }

let t_sub _ctx a b =
  if not (a.ik && b.ik) then top_any
  else
    let base =
      match (a.base, b.base) with
      | x, Bnone -> x
      | Bone g, Bone h when g = h -> Bnone
      | _ -> Bmany
    in
    match (sub_ovf a.lo b.hi, sub_ovf a.hi b.lo) with
    | Some lo, Some hi -> norm { top_i with base; lo; hi }
    | _ -> norm { top_i with base }

let t_mul _ctx a b =
  if not (a.ik && b.ik && a.base = Bnone && b.base = Bnone) then top_any
  else
    let cands =
      [ mul_ovf a.lo b.lo; mul_ovf a.lo b.hi; mul_ovf a.hi b.lo; mul_ovf a.hi b.hi ]
    in
    if List.exists (fun c -> c = None) cands then top_i
    else
      let vs = List.filter_map Fun.id cands in
      bounded (List.fold_left min Int64.max_int vs) (List.fold_left max Int64.min_int vs)

let t_and (ctx : tctx) a b =
  if not (a.ik && b.ik && a.base = Bnone && b.base = Bnone) then top_any
  else
    let v =
      norm
        {
          top_i with
          kz = Int64.logor a.kz b.kz;
          ko = Int64.logand a.ko b.ko;
        }
    in
    (* [x & m] with a non-negative singleton mask: tight range *)
    let cap m v =
      if m >= 0L then
        let hi = if ctx.bug = Some Bug_and_mask && m > 0L then Int64.sub m 1L else m in
        norm { v with lo = max v.lo 0L; hi = min v.hi hi }
      else v
    in
    let v = if is_singleton b then cap b.lo v else v in
    let v = if is_singleton a then cap a.lo v else v in
    v

let t_or _ctx a b =
  if not (a.ik && b.ik && a.base = Bnone && b.base = Bnone) then top_any
  else
    let v =
      norm
        {
          top_i with
          kz = Int64.logand a.kz b.kz;
          ko = Int64.logor a.ko b.ko;
        }
    in
    if a.lo >= 0L && b.lo >= 0L then norm { v with lo = max a.lo b.lo } else v

let t_xor _ctx a b =
  if not (a.ik && b.ik && a.base = Bnone && b.base = Bnone) then top_any
  else
    norm
      {
        top_i with
        kz = Int64.logor (Int64.logand a.kz b.kz) (Int64.logand a.ko b.ko);
        ko = Int64.logor (Int64.logand a.kz b.ko) (Int64.logand a.ko b.kz);
      }

let low_ones n = if n <= 0 then 0L else if n >= 64 then -1L else Int64.sub (Int64.shift_left 1L n) 1L

let t_shl _ctx a b =
  if not (a.ik && b.ik && a.base = Bnone) then top_any
  else if is_singleton b && b.lo >= 0L && b.lo < 64L then begin
    let s = Int64.to_int b.lo in
    let kz = Int64.logor (Int64.shift_left a.kz s) (low_ones s) in
    let ko = Int64.shift_left a.ko s in
    match (mul_ovf a.lo (Int64.shift_left 1L s), mul_ovf a.hi (Int64.shift_left 1L s)) with
    | Some lo, Some hi -> norm { top_i with lo; hi; kz; ko }
    | _ -> norm { top_i with kz; ko }
  end
  else top_i

let t_lsr _ctx a b =
  if not (a.ik && b.ik && a.base = Bnone) then top_any
  else if is_singleton b && b.lo > 0L && b.lo < 64L then begin
    let s = Int64.to_int b.lo in
    let kz =
      Int64.logor
        (Int64.shift_right_logical a.kz s)
        (Int64.lognot (Int64.shift_right_logical (-1L) s))
    in
    let ko = Int64.shift_right_logical a.ko s in
    let hi =
      if a.lo >= 0L then Int64.shift_right_logical a.hi s
      else Int64.shift_right_logical (-1L) s
    in
    norm { top_i with lo = 0L; hi; kz; ko }
  end
  else if is_singleton b && b.lo = 0L then a
  else top_i

let t_asr _ctx a b =
  if not (a.ik && b.ik && a.base = Bnone) then top_any
  else if is_singleton b && b.lo >= 0L && b.lo < 64L then begin
    let s = Int64.to_int b.lo in
    bounded (Int64.shift_right a.lo s) (Int64.shift_right a.hi s)
  end
  else top_i

let t_div _ctx a b =
  if not (a.ik && b.ik && a.base = Bnone && b.base = Bnone) then top_any
  else if a.lo >= 0L && b.lo > 0L then bounded 0L a.hi
  else top_i

let t_rem _ctx a b =
  if not (a.ik && b.ik && a.base = Bnone && b.base = Bnone) then top_any
  else if a.lo >= 0L && b.lo > 0L then bounded 0L (min a.hi (Int64.sub b.hi 1L))
  else top_i

let bool_range = norm { top_i with lo = 0L; hi = 1L }

(* Decide an integer comparison from the operand ranges, if possible. *)
let rec cmp_decide (ctx : tctx) (op : Ast.binop) a b : bool option =
  if not (a.ik && b.ik) then None
  else if a.base <> Bnone || b.base <> Bnone then
    (* identical singleton bases compare by offset; otherwise unknown *)
    match (a.base, b.base) with
    | Bone g, Bone h when g = h && op = Ast.Eq ->
      if a.lo = a.hi && b.lo = b.hi && a.lo = b.lo then Some true
      else if a.hi < b.lo || b.hi < a.lo then Some false
      else None
    | Bone g, Bone h when g = h && op = Ast.Ne ->
      if a.lo = a.hi && b.lo = b.hi && a.lo = b.lo then Some false
      else if a.hi < b.lo || b.hi < a.lo then Some true
      else None
    | _ -> None
  else
    let a, b = if ctx.bug = Some Bug_cmp_flip && op = Ast.Lt then (b, a) else (a, b) in
    match op with
    | Ast.Eq ->
      if a.lo = a.hi && b.lo = b.hi && a.lo = b.lo then Some true
      else if a.hi < b.lo || b.hi < a.lo then Some false
      else if Int64.logand a.ko b.kz <> 0L || Int64.logand a.kz b.ko <> 0L then Some false
      else None
    | Ast.Ne -> (
      match cmp_decide { bug = None } Ast.Eq a b with
      | Some r -> Some (not r)
      | None -> None)
    | Ast.Lt ->
      if a.hi < b.lo then Some true else if a.lo >= b.hi then Some false else None
    | Ast.Le ->
      if a.hi <= b.lo then Some true else if a.lo > b.hi then Some false else None
    | Ast.Gt ->
      if a.lo > b.hi then Some true else if a.hi <= b.lo then Some false else None
    | Ast.Ge ->
      if a.lo >= b.hi then Some true else if a.hi < b.lo then Some false else None
    | Ast.Ult ->
      if a.lo >= 0L && b.lo >= 0L then
        if a.hi < b.lo then Some true else if a.lo >= b.hi then Some false else None
      else None
    | Ast.Ule ->
      if a.lo >= 0L && b.lo >= 0L then
        if a.hi <= b.lo then Some true else if a.lo > b.hi then Some false else None
      else None
    | _ -> None

let t_cmp ctx op a b =
  match cmp_decide ctx op a b with
  | Some true -> singleton 1L
  | Some false -> singleton 0L
  | None -> bool_range

let width_bits w = 8 * Ty.bytes_of_width w

let t_sext _ctx w a =
  let bits = width_bits w in
  if bits >= 64 then (if a.ik && a.base = Bnone then a else top_any)
  else
    let half = Int64.shift_left 1L (bits - 1) in
    let lo = Int64.neg half and hi = Int64.sub half 1L in
    if a.ik && a.base = Bnone && a.lo >= lo && a.hi <= hi then a else bounded lo hi

let t_zext _ctx w a =
  let bits = width_bits w in
  if bits >= 64 then (if a.ik && a.base = Bnone then a else top_any)
  else
    let hi = Int64.sub (Int64.shift_left 1L bits) 1L in
    if a.ik && a.base = Bnone && a.lo >= 0L && a.hi <= hi then a else bounded 0L hi

let t_neg _ctx a =
  if not (a.ik && a.base = Bnone) then top_any
  else if a.lo = Int64.min_int then top_i
  else bounded (Int64.neg a.hi) (Int64.neg a.lo)

let t_not _ctx a =
  if not (a.ik && a.base = Bnone) then top_any
  else
    norm
      {
        top_i with
        lo = Int64.lognot a.hi;
        hi = Int64.lognot a.lo;
        kz = a.ko;
        ko = a.kz;
      }

let t_binop ctx (op : Ast.binop) a b : aval =
  match op with
  | Ast.Add -> t_add ctx a b
  | Ast.Sub -> t_sub ctx a b
  | Ast.Mul -> t_mul ctx a b
  | Ast.Div -> t_div ctx a b
  | Ast.Rem -> t_rem ctx a b
  | Ast.And -> t_and ctx a b
  | Ast.Or -> t_or ctx a b
  | Ast.Xor -> t_xor ctx a b
  | Ast.Shl -> t_shl ctx a b
  | Ast.Lsr -> t_lsr ctx a b
  | Ast.Asr -> t_asr ctx a b
  | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Ult | Ast.Ule ->
    t_cmp ctx op a b
  | Ast.Feq | Ast.Fne | Ast.Flt | Ast.Fle | Ast.Fgt | Ast.Fge -> bool_range
  | Ast.Fadd | Ast.Fsub | Ast.Fmul | Ast.Fdiv -> top_any

let t_unop ctx (op : Ast.unop) a : aval =
  match op with
  | Ast.Neg -> t_neg ctx a
  | Ast.Not -> t_not ctx a
  | Ast.Sext w -> t_sext ctx w a
  | Ast.Zext w -> t_zext ctx w a
  | Ast.Ftoi -> top_i
  | Ast.Itof | Ast.Fneg -> top_any

let t_load (ty : Ty.t) (w : Ty.width) : aval =
  match ty with
  | Ty.F64 -> top_any
  | Ty.I64 ->
    (* sub-word integer loads zero-extend (Image.load) *)
    if w = Ty.W8 then top_i else bounded 0L (low_ones (width_bits w))

(* ------------------------------------------------------------------ *)
(* Environments and the per-function fixpoint                          *)
(* ------------------------------------------------------------------ *)

(* A function's environment maps each of its vregs to a value.  It is
   a small table of fixed-size chunks: block entries share chunks
   copy-on-write, so a block visit pays for the chunks it writes, not for
   the whole function, and every copy (65 words at most) stays in the
   minor heap.  [absent] marks a vreg bound on no path yet.  It reads as
   top, but a merge adopts the other side's value for it, as a map union
   would; only its physical identity is ever tested. *)
type env = aval array array

let chunk_bits = 6
let chunk = 1 lsl chunk_bits
let absent = { top_any with lo = 0L }

(* An environment over vregs [0 .. n-1] binding none of them.  All its
   chunks are one array, which is safe because chunks are never written
   in place once shared. *)
let empty_env n : env = Array.make ((n + chunk - 1) / chunk) (Array.make chunk absent)

let lookup (env : env) v =
  let c = v lsr chunk_bits in
  if c >= Array.length env then top_any
  else
    let x = env.(c).(v land (chunk - 1)) in
    if x == absent then top_any else x

let eval_operand env (o : Cfg.operand) : aval =
  match o with
  | Cfg.Reg r -> lookup env r
  | Cfg.Ci n -> singleton n
  | Cfg.Cf _ -> top_any
  | Cfg.Sym g -> of_base g

(* A writable copy of an environment's chunk table.  A chunk it still
   shares with [base] is copied on its first write, so [base] itself
   never changes. *)
type writer = { base : env; tbl : env }

let writer (env : env) = { base = env; tbl = Array.copy env }

(* Bind [v] to [x].  A bound vreg whose value equals [x] field for field
   keeps its record: every result of the analysis depends on fields
   only, and skipping the write saves a chunk copy. *)
let set w v x =
  let c = v lsr chunk_bits and i = v land (chunk - 1) in
  let cur = w.tbl.(c).(i) in
  if cur == absent || not (equal cur x) then begin
    if w.tbl.(c) == w.base.(c) then w.tbl.(c) <- Array.copy w.base.(c);
    w.tbl.(c).(i) <- x
  end

(* Merge [next] into [old] vreg by vreg with [f], as a map union would: a
   vreg bound on one side only adopts that side's value, and where [f]
   leaves a value as it was, [old]'s own record is kept, so that later
   comparisons against it stop at physical equality.  An equal pair skips
   [f] only when [norm] fixes the value, because [f] normalizes and
   [norm] is not idempotent in general.  Chunks, and the table, are
   [old]'s own wherever nothing moves. *)
let merge_slot f x y =
  if y == absent then x
  else if x == absent then y
  else if (x == y || equal x y) && norm x == x then x
  else
    let z = f x y in
    if equal z x then x else z

let merge_chunk f (oc : aval array) (nc : aval array) =
  let out = ref oc in
  for i = 0 to chunk - 1 do
    let x = oc.(i) in
    let z = merge_slot f x nc.(i) in
    if z != x then begin
      if !out == oc then out := Array.copy oc;
      !out.(i) <- z
    end
  done;
  !out

let env_merge f (old : env) (next : env) : env =
  let out = ref old in
  for c = 0 to Array.length old - 1 do
    let oc = old.(c) in
    let m = merge_chunk f oc next.(c) in
    if m != oc then begin
      if !out == old then out := Array.copy old;
      !out.(c) <- m
    end
  done;
  !out

let env_join = env_merge join
let env_widen = env_merge widen

(* [p] holds for every slot pair of [a] and [b]; a chunk the two share is
   skipped, so [p x x] must hold for any [x]. *)
let env_for_all2 p (a : env) (b : env) =
  let rec slots ac bc i = i = chunk || (p ac.(i) bc.(i) && slots ac bc (i + 1)) in
  let rec chunks c =
    c = Array.length a || ((a.(c) == b.(c) || slots a.(c) b.(c) 0) && chunks (c + 1))
  in
  chunks 0

let env_leq a b =
  (* a <= b iff every bound vreg of b over-approximates a's value; vregs
     b does not bind are top there *)
  env_for_all2
    (fun x y -> y == absent || leq (if x == absent then top_any else x) y)
    a b

(* [env_leq merged old && env_leq old merged] in one pass, for a [merged]
   that is a join or widening of [old], so binds a superset of its vregs:
   a vreg [old] lacks is top there, so [merged] must hold top for it. *)
let env_unchanged merged old =
  env_for_all2
    (fun m o -> m == absent || if o == absent then leq top_any m else equal m o)
    merged old

(* Per-vreg compare provenance for branch refinement: which comparison a
   vreg was last defined by, invalidated when any mentioned reg changes. *)
type cmps = (Ast.binop * Cfg.operand * Cfg.operand) IM.t

(* [o = Cfg.Reg d], without building the register or walking it. *)
let is_reg d (o : Cfg.operand) = match o with Cfg.Reg x -> x = d | _ -> false

let cmps_kill (c : cmps) (d : Cfg.vreg) : cmps =
  IM.filter (fun dest (_, a, b) -> dest <> d && not (is_reg d a || is_reg d b)) c

(* Block-local copy equalities, vreg -> canonical representative.  Branch
   refinement narrows a compare's operands; without this, a [Mov] copy of
   the compared value (which Lower emits for every source-level variable)
   would keep its unrefined range. *)
type eqs = Cfg.vreg IM.t

let eq_canon (e : eqs) x = match IM.find_opt x e with Some c -> c | None -> x

(* Everybody provably equal to [x]: its canon plus all other members. *)
let eq_class (e : eqs) x =
  let c = eq_canon e x in
  let rest =
    IM.fold (fun y cy acc -> if cy = c && y <> x then y :: acc else acc) e []
  in
  if c = x then x :: rest else x :: c :: rest

let eqs_kill (e : eqs) (d : Cfg.vreg) : eqs =
  IM.filter (fun y c -> y <> d && c <> d) e

type summaries = (string, aval) Hashtbl.t

let summary (summ : summaries) f =
  match Hashtbl.find_opt summ f with Some s -> s | None -> top_any

(* One instruction, writing its def into [wr]: new cmp/eq maps, and the
   def's value if any. *)
let transfer ctx (summ : summaries) (wr : writer) ((cm : cmps), (eq : eqs))
    (ins : Cfg.ins) : (cmps * eqs) * (Cfg.vreg * aval) option =
  let env = wr.tbl in
  let def ?copy_of d v cm_update =
    let cm = cmps_kill cm d in
    let cm = cm_update cm in
    let eq = eqs_kill eq d in
    let eq =
      match copy_of with
      | Some s when s <> d -> IM.add d (eq_canon eq s) eq
      | _ -> eq
    in
    let v = norm v in
    set wr d v;
    ((cm, eq), Some (d, v))
  in
  match ins with
  | Cfg.Bin (op, d, a, b) ->
    let va = eval_operand env a and vb = eval_operand env b in
    let v = t_binop ctx op va vb in
    let is_icmp =
      match op with
      | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Ult | Ast.Ule ->
        true
      | _ -> false
    in
    (* don't record a compare whose operands mention the destination: the
       recorded entry would refer to the post-assignment value *)
    def d v (fun cm ->
        if is_icmp && not (is_reg d a || is_reg d b) then IM.add d (op, a, b) cm
        else cm)
  | Cfg.Un (op, d, a) -> def d (t_unop ctx op (eval_operand env a)) (fun cm -> cm)
  | Cfg.Mov (d, src) ->
    let v = eval_operand env src in
    let copy_of = match src with Cfg.Reg s -> Some s | _ -> None in
    def ?copy_of d v (fun cm ->
        match src with
        | Cfg.Reg s -> (
          match IM.find_opt s cm with Some c -> IM.add d c cm | None -> cm)
        | _ -> cm)
  | Cfg.Load (ty, w, d, _, _) -> def d (t_load ty w) (fun cm -> cm)
  | Cfg.Store _ -> ((cm, eq), None)
  | Cfg.Call (Some d, f, _) -> def d (summary summ f) (fun cm -> cm)
  | Cfg.Call (None, _, _) -> ((cm, eq), None)

(* Meet a vreg's value in [wr] with a refined range; false when
   contradictory. *)
let meet_one wr x ~lo ~hi =
  let v = lookup wr.tbl x in
  if not (v.ik && v.base = Bnone) then true
  else
    let lo = max v.lo lo and hi = min v.hi hi in
    lo <= hi
    && begin
      set wr x (norm { v with lo; hi });
      true
    end

(* Refine [env] along the [pol] edge of a branch on [c]; None when the
   edge is infeasible.  [cm] supplies the defining comparison of condition
   vregs; [eq] extends every narrowing to the refined register's whole
   copy class.  [env] itself is untouched: the edge gets its own copy of
   the chunks it narrows. *)
let refine (ctx : tctx) (cm : cmps) (eq : eqs) (env : env) (c : Cfg.operand)
    (pol : bool) : env option =
  let pol = if ctx.bug = Some Bug_refine_flip then not pol else pol in
  let wr = writer env in
  (* shadow the single-register meet with one that narrows every copy *)
  let meet_range x ~lo ~hi =
    List.for_all (fun y -> meet_one wr y ~lo ~hi) (eq_class eq x)
  in
  let refine_cond () =
    match c with
    | Cfg.Reg x ->
      let v = lookup wr.tbl x in
      if not (v.ik && v.base = Bnone) then true
      else if pol then
        if always_zero v then false
        else if v.lo = 0L && v.hi > 0L then meet_range x ~lo:1L ~hi:v.hi
        else true
      else if never_zero v then false
      else meet_range x ~lo:0L ~hi:0L
    | _ -> true
  in
  let refine_cmp () =
    match c with
    | Cfg.Reg x -> (
      match IM.find_opt x cm with
      | None -> true
      | Some (op, a, b) -> (
        let va = eval_operand wr.tbl a and vb = eval_operand wr.tbl b in
        if not (va.ik && vb.ik && va.base = Bnone && vb.base = Bnone) then true
        else
          (* constraint: [a OP b] == pol *)
          let bind side f = match side with Cfg.Reg r -> f r | _ -> true in
          let app_left () =
            bind a (fun x ->
                match (op, pol) with
                | Ast.Lt, true ->
                  meet_range x ~lo:Int64.min_int ~hi:(Int64.sub vb.hi 1L)
                | Ast.Lt, false -> meet_range x ~lo:vb.lo ~hi:Int64.max_int
                | Ast.Le, true -> meet_range x ~lo:Int64.min_int ~hi:vb.hi
                | Ast.Le, false ->
                  meet_range x ~lo:(Int64.add vb.lo 1L) ~hi:Int64.max_int
                | Ast.Gt, true ->
                  meet_range x ~lo:(Int64.add vb.lo 1L) ~hi:Int64.max_int
                | Ast.Gt, false -> meet_range x ~lo:Int64.min_int ~hi:vb.hi
                | Ast.Ge, true -> meet_range x ~lo:vb.lo ~hi:Int64.max_int
                | Ast.Ge, false ->
                  meet_range x ~lo:Int64.min_int ~hi:(Int64.sub vb.hi 1L)
                | Ast.Eq, true -> meet_range x ~lo:vb.lo ~hi:vb.hi
                | Ast.Eq, false | Ast.Ne, true ->
                  if vb.lo = vb.hi then
                    let v = lookup wr.tbl x in
                    if v.lo = vb.lo && v.hi = vb.lo then false
                    else if v.lo = vb.lo then
                      meet_range x ~lo:(Int64.add vb.lo 1L) ~hi:Int64.max_int
                    else if v.hi = vb.lo then
                      meet_range x ~lo:Int64.min_int ~hi:(Int64.sub vb.lo 1L)
                    else true
                  else true
                | Ast.Ne, false -> meet_range x ~lo:vb.lo ~hi:vb.hi
                | Ast.Ult, true ->
                  if vb.lo >= 0L then
                    meet_range x ~lo:0L ~hi:(Int64.sub vb.hi 1L)
                  else true
                | Ast.Ule, true ->
                  if vb.lo >= 0L then meet_range x ~lo:0L ~hi:vb.hi
                  else true
                | Ast.Ult, false ->
                  let v = lookup wr.tbl x in
                  if v.lo >= 0L && vb.lo >= 0L then
                    meet_range x ~lo:vb.lo ~hi:Int64.max_int
                  else true
                | Ast.Ule, false ->
                  let v = lookup wr.tbl x in
                  if v.lo >= 0L && vb.lo >= 0L then
                    meet_range x ~lo:(Int64.add vb.lo 1L) ~hi:Int64.max_int
                  else true
                | _ -> true)
          in
          let app_right () =
            bind b (fun y ->
                match (op, pol) with
                | Ast.Lt, true ->
                  meet_range y ~lo:(Int64.add va.lo 1L) ~hi:Int64.max_int
                | Ast.Lt, false -> meet_range y ~lo:Int64.min_int ~hi:va.hi
                | Ast.Le, true -> meet_range y ~lo:va.lo ~hi:Int64.max_int
                | Ast.Le, false ->
                  meet_range y ~lo:Int64.min_int ~hi:(Int64.sub va.hi 1L)
                | Ast.Gt, true ->
                  meet_range y ~lo:Int64.min_int ~hi:(Int64.sub va.hi 1L)
                | Ast.Gt, false -> meet_range y ~lo:va.lo ~hi:Int64.max_int
                | Ast.Ge, true -> meet_range y ~lo:Int64.min_int ~hi:va.hi
                | Ast.Ge, false ->
                  meet_range y ~lo:(Int64.add va.lo 1L) ~hi:Int64.max_int
                | Ast.Eq, true -> meet_range y ~lo:va.lo ~hi:va.hi
                | _ -> true)
          in
          app_left () && app_right ()))
    | _ -> true
  in
  if refine_cond () && refine_cmp () then Some wr.tbl else None

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type fres = {
  f_entry : (string, env) Hashtbl.t;  (* reachable blocks only *)
  f_defs : (string * int, aval) Hashtbl.t;  (* per-ins def values *)
  f_branch : (string, bool) Hashtbl.t;  (* provable branch directions *)
  f_joined : aval IM.t;  (* flow-insensitive per-vreg join *)
  f_widens : int;
}

type stats = {
  s_funcs : int;
  s_blocks : int;
  s_reachable : int;
  s_const_defs : int;
  s_dead_branches : int;
  s_trap_divs : int;
  s_oor_shifts : int;
  s_sep_pairs : int;
  s_widenings : int;
}

type t = {
  prog : Cfg.program;
  fres : (string, fres) Hashtbl.t;
  sizes : (string * int) list;
  bug : bug option;
}

let widen_threshold = 3
let max_sweeps = 200
let summary_rounds = 3

(* Slots for every vreg the function binds: its parameters and defs. *)
let env_size (f : Cfg.func) =
  let n = ref f.next_vreg in
  let see v = if v >= !n then n := v + 1 in
  List.iter (fun (v, _) -> see v) f.params;
  List.iter
    (fun (b : Cfg.block) -> List.iter (fun ins -> List.iter see (Cfg.defs ins)) b.Cfg.ins)
    f.blocks;
  !n

let analyze_func ctx (summ : summaries) (f : Cfg.func) : fres * aval =
  let blocks = Array.of_list f.blocks in
  let nvregs = env_size f in
  let index = Hashtbl.create 16 in
  Array.iteri (fun i (b : Cfg.block) -> Hashtbl.replace index b.Cfg.label i) blocks;
  let entry_env : env option array = Array.make (Array.length blocks) None in
  let join_count = Array.make (Array.length blocks) 0 in
  let widens = ref 0 in
  (* parameters stay top: entry functions can be called with anything *)
  let init =
    let wr = writer (empty_env nvregs) in
    List.iter
      (fun (v, ty) -> set wr v (match ty with Ty.I64 -> top_i | Ty.F64 -> top_any))
      f.params;
    wr.tbl
  in
  if Array.length blocks > 0 then entry_env.(0) <- Some init;
  let dirty = Array.make (Array.length blocks) true in
  let ret_acc = ref None in
  let sweep () =
    let changed = ref false in
    Array.iteri
      (fun bi (b : Cfg.block) ->
        match entry_env.(bi) with
        | None -> ()
        | Some env0 when dirty.(bi) ->
          dirty.(bi) <- false;
          let wr = writer env0 in
          let cm, eq =
            List.fold_left
              (fun maps ins -> fst (transfer ctx summ wr maps ins))
              (IM.empty, IM.empty) b.Cfg.ins
          in
          let env = wr.tbl in
          let push label env' =
            match Hashtbl.find_opt index label with
            | None -> ()
            | Some si -> (
              match entry_env.(si) with
              | None ->
                entry_env.(si) <- Some env';
                dirty.(si) <- true;
                changed := true
              | Some old ->
                if not (env_leq env' old) then begin
                  join_count.(si) <- join_count.(si) + 1;
                  let merged =
                    if join_count.(si) > widen_threshold then begin
                      incr widens;
                      env_widen old env'
                    end
                    else env_join old env'
                  in
                  if not (env_unchanged merged old) then begin
                    entry_env.(si) <- Some merged;
                    dirty.(si) <- true;
                    changed := true
                  end
                end)
          in
          (match b.Cfg.term with
          | Cfg.Jmp l -> push l env
          | Cfg.Br (c, l1, l2) ->
            (match refine ctx cm eq env c true with
            | Some e -> push l1 e
            | None -> ());
            (match refine ctx cm eq env c false with
            | Some e -> push l2 e
            | None -> ())
          | Cfg.Ret ro ->
            let rv =
              match ro with Some o -> eval_operand env o | None -> top_any
            in
            ret_acc :=
              Some (match !ret_acc with None -> rv | Some acc -> join acc rv))
        | Some _ -> ())
      blocks;
    !changed
  in
  let sweeps = ref 0 in
  while sweep () && !sweeps < max_sweeps do
    incr sweeps;
    if !sweeps >= max_sweeps then begin
      (* safety valve: drop to all-top so the final pass stays sound *)
      let empty = empty_env nvregs in
      Array.iteri
        (fun i e -> if Option.is_some e then entry_env.(i) <- Some empty)
        entry_env;
      ret_acc := Some top_any
    end
  done;
  (* final recording pass over the stabilized entry environments *)
  let f_entry = Hashtbl.create 16 in
  let f_defs = Hashtbl.create 64 in
  let f_branch = Hashtbl.create 8 in
  let f_joined = ref IM.empty in
  let note_join d v =
    f_joined :=
      IM.update d
        (function None -> Some v | Some o -> Some (join o v))
        !f_joined
  in
  Array.iteri
    (fun bi (b : Cfg.block) ->
      match entry_env.(bi) with
      | None -> ()
      | Some env0 ->
        Hashtbl.replace f_entry b.Cfg.label env0;
        let wr = writer env0 in
        let cm, eq =
          List.fold_left
            (fun (maps, i) ins ->
              let maps, dv = transfer ctx summ wr maps ins in
              (match dv with
              | Some (d, v) ->
                Hashtbl.replace f_defs (b.Cfg.label, i) v;
                note_join d v
              | None -> ());
              (maps, i + 1))
            ((IM.empty, IM.empty), 0)
            b.Cfg.ins
          |> fst
        in
        let env = wr.tbl in
        (match b.Cfg.term with
        | Cfg.Br (c, _, _) -> (
          let cv = eval_operand env c in
          if never_zero cv then Hashtbl.replace f_branch b.Cfg.label true
          else if always_zero cv then Hashtbl.replace f_branch b.Cfg.label false
          else
            (* refinement contradiction on one edge also decides the branch *)
            match
              (refine ctx cm eq env c true, refine ctx cm eq env c false)
            with
            | Some _, None -> Hashtbl.replace f_branch b.Cfg.label true
            | None, Some _ -> Hashtbl.replace f_branch b.Cfg.label false
            | _ -> ())
        | _ -> ()))
    blocks;
  let ret = match !ret_acc with Some v -> v | None -> top_any in
  ({ f_entry; f_defs; f_branch; f_joined = !f_joined; f_widens = !widens }, ret)

(* The functions whose return summaries [analyze_func] reads. *)
let callees (f : Cfg.func) =
  List.sort_uniq compare
    (List.concat_map
       (fun (b : Cfg.block) ->
         List.filter_map
           (function Cfg.Call (Some _, g, _) -> Some g | _ -> None)
           b.Cfg.ins)
       f.Cfg.blocks)

let analyze ?bug (p : Cfg.program) : t =
  let bug = Option.bind bug bug_of_int in
  let ctx = { bug } in
  let summ : summaries = Hashtbl.create 8 in
  (* A function's fixpoint depends only on its body and its callees'
     summaries, so each function keeps its last result with the summaries
     it was computed under and is re-run only when one of them changed. *)
  let memo =
    List.map (fun (f : Cfg.func) -> (f, callees f, ref None)) p.Cfg.funcs
  in
  let run (f, cs, cached) =
    let under = List.map (summary summ) cs in
    match !cached with
    | Some (u, r) when List.equal equal u under -> r
    | _ ->
      let r = analyze_func ctx summ f in
      cached := Some (under, r);
      r
  in
  (* downward summary iteration: round 0 = top, each round sound *)
  for _round = 1 to summary_rounds do
    let last =
      List.map (fun ((f : Cfg.func), _, _ as m) -> (f.Cfg.name, snd (run m))) memo
    in
    Hashtbl.reset summ;
    List.iter (fun (k, v) -> Hashtbl.replace summ k v) last
  done;
  let fres = Hashtbl.create 8 in
  List.iter
    (fun ((f : Cfg.func), _, _ as m) -> Hashtbl.replace fres f.Cfg.name (fst (run m)))
    memo;
  {
    prog = p;
    fres;
    sizes = List.map (fun (g : Ast.global) -> (g.Ast.gname, g.Ast.size)) p.Cfg.globals;
    bug;
  }

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

let func_res t fname = Hashtbl.find_opt t.fres fname

let entry_env t ~fname ~label =
  match func_res t fname with
  | None -> None
  | Some r -> Hashtbl.find_opt r.f_entry label

let range_at t ~fname ~label v =
  match entry_env t ~fname ~label with
  | None -> None
  | Some env ->
    let a = lookup env v in
    if a.ik && a.base = Bnone then Some (a.lo, a.hi) else None

let def_value t ~fname ~label idx =
  match func_res t fname with
  | None -> None
  | Some r -> (
    match Hashtbl.find_opt r.f_defs (label, idx) with
    | Some a when a.ik && a.base = Bnone -> Some (a.lo, a.hi)
    | _ -> None)

let branch_dir t ~fname ~label =
  Option.bind (func_res t fname) (fun r -> Hashtbl.find_opt r.f_branch label)

let reachable t ~fname ~label =
  match func_res t fname with
  | None -> false
  | Some r -> Hashtbl.mem r.f_entry label

(* ------------------------------------------------------------------ *)
(* The separation oracle and Opt facts                                 *)
(* ------------------------------------------------------------------ *)

(* Resolve an access (root operand, byte offset, width) into an absolute or
   base-relative byte range. *)
let resolve_access (r : fres) (o : Cfg.operand) off w :
    (bset * int64 * int64) option =
  let v =
    match o with
    | Cfg.Sym g -> of_base g
    | Cfg.Ci n -> singleton n
    | Cfg.Cf _ -> top_any
    | Cfg.Reg x -> ( match IM.find_opt x r.f_joined with Some a -> a | None -> top_any)
  in
  if not v.ik then None
  else
    let off = Int64.of_int off and bytes = Int64.of_int (Ty.bytes_of_width w) in
    match (add_ovf v.lo off, add_ovf v.hi off) with
    | Some lo, Some hi -> (
      match add_ovf hi bytes with
      | Some hi_end -> Some (v.base, lo, hi_end)  (* [lo, hi_end) *)
      | None -> None)
    | _ -> None

let in_bounds t base lo hi_end =
  match base with
  | Bone g -> (
    match List.assoc_opt g t.sizes with
    | Some size -> lo >= 0L && hi_end <= Int64.of_int size
    | None -> false)
  | _ -> false

let sep t (r : fres) (o1, off1, w1) (o2, off2, w2) : bool =
  match (resolve_access r o1 off1 w1, resolve_access r o2 off2 w2) with
  | Some (b1, lo1, he1), Some (b2, lo2, he2) -> (
    match (b1, b2) with
    | Bone g1, Bone g2 when g1 <> g2 ->
      (* distinct globals are laid out disjointly; in-bounds accesses to
         different globals can never overlap *)
      in_bounds t b1 lo1 he1 && in_bounds t b2 lo2 he2
    | Bone g1, Bone g2 when g1 = g2 ->
      if t.bug = Some Bug_sep_overlap then true
      else
        in_bounds t b1 lo1 he1 && in_bounds t b2 lo2 he2
        && (he1 <= lo2 || he2 <= lo1)
    | Bnone, Bnone -> he1 <= lo2 || he2 <= lo1
    | _ -> false)
  | _ -> false

let separated t ~fname a b =
  match func_res t fname with None -> false | Some r -> sep t r a b

let facts t fname : Opt.absfacts =
  match func_res t fname with
  | None -> Opt.no_facts
  | Some r ->
    {
      Opt.af_const =
        (fun label idx ->
          match Hashtbl.find_opt r.f_defs (label, idx) with
          | Some v when is_singleton v -> Some (Cfg.Ci v.lo)
          | _ -> None);
      af_branch = (fun label -> Hashtbl.find_opt r.f_branch label);
      af_sep = (fun a b -> sep t r a b);
    }

(* ------------------------------------------------------------------ *)
(* Findings and stats                                                  *)
(* ------------------------------------------------------------------ *)

let func_memops (f : Cfg.func) : (Cfg.operand * int * Ty.width) list =
  List.concat_map
    (fun (b : Cfg.block) ->
      List.filter_map
        (function
          | Cfg.Load (_, w, _, a, off) -> Some (a, off, w)
          | Cfg.Store (w, a, off, _) -> Some (a, off, w)
          | _ -> None)
        b.Cfg.ins)
    f.Cfg.blocks

let sep_pair_count t r (f : Cfg.func) =
  let ops = Array.of_list (func_memops f) in
  let n = ref 0 in
  Array.iteri
    (fun i a ->
      Array.iteri (fun j b -> if j > i && sep t r a b then incr n) ops)
    ops;
  !n

(* A function's findings and its must-not-alias pair count. *)
let func_diags t (f : Cfg.func) : Diag.t list * int =
  match func_res t f.Cfg.name with
  | None -> ([], 0)
  | Some r ->
    let ds = ref [] in
    let add ?sev ?inst ~block cls msg =
      ds := Diag.make ?sev ?inst ~pass:"absint" ~fname:f.Cfg.name ~block cls msg :: !ds
    in
    let joined_of = function
      | Cfg.Ci n -> singleton n
      | Cfg.Reg x -> (
        match IM.find_opt x r.f_joined with Some a -> a | None -> top_any)
      | _ -> top_any
    in
    List.iter
      (fun (b : Cfg.block) ->
        if Hashtbl.mem r.f_entry b.Cfg.label then begin
          List.iteri
            (fun i ins ->
              match ins with
              | Cfg.Bin ((Ast.Div | Ast.Rem), _, _, divisor) ->
                (* the flow-insensitive join is zero only if every definition
                   of the divisor is zero, so "always traps" is sound *)
                if always_zero (joined_of divisor) then
                  add ~sev:Diag.Warning ~inst:i ~block:b.Cfg.label "trap-div"
                    "division by a provably-zero divisor always traps"
              | Cfg.Bin ((Ast.Shl | Ast.Lsr | Ast.Asr), _, _, count) ->
                let cv = joined_of count in
                if cv.ik && cv.base = Bnone && (cv.hi < 0L || cv.lo > 63L) then
                  add ~sev:Diag.Warning ~inst:i ~block:b.Cfg.label "shift-range"
                    "shift count is provably outside 0..63"
              | _ -> ())
            b.Cfg.ins;
          match Hashtbl.find_opt r.f_branch b.Cfg.label with
          | Some dir ->
            add ~sev:Diag.Info ~block:b.Cfg.label "dead-branch"
              (Printf.sprintf "branch provably always goes to the %s side"
                 (if dir then "then" else "else"))
          | None -> ()
        end)
      f.Cfg.blocks;
    let pairs = sep_pair_count t r f in
    if pairs > 0 then
      add ~sev:Diag.Info ~block:"" "alias-pairs"
        (Printf.sprintf "%d memory access pairs proved must-not-alias" pairs);
    (List.rev !ds, pairs)

let diags t : Diag.t list =
  List.concat_map (fun f -> fst (func_diags t f)) t.prog.Cfg.funcs

let stats t : stats =
  let s =
    ref
      {
        s_funcs = 0;
        s_blocks = 0;
        s_reachable = 0;
        s_const_defs = 0;
        s_dead_branches = 0;
        s_trap_divs = 0;
        s_oor_shifts = 0;
        s_sep_pairs = 0;
        s_widenings = 0;
      }
  in
  List.iter
    (fun (f : Cfg.func) ->
      match func_res t f.Cfg.name with
      | None -> ()
      | Some r ->
        let consts =
          Hashtbl.fold (fun _ v acc -> if is_singleton v then acc + 1 else acc) r.f_defs 0
        in
        let ds, pairs = func_diags t f in
        let count cls =
          List.fold_left
            (fun acc (d : Diag.t) -> if d.Diag.cls = cls then acc + d.Diag.count else acc)
            0 ds
        in
        s :=
          {
            s_funcs = !s.s_funcs + 1;
            s_blocks = !s.s_blocks + List.length f.Cfg.blocks;
            s_reachable = !s.s_reachable + Hashtbl.length r.f_entry;
            s_const_defs = !s.s_const_defs + consts;
            s_dead_branches = !s.s_dead_branches + Hashtbl.length r.f_branch;
            s_trap_divs = !s.s_trap_divs + count "trap-div";
            s_oor_shifts = !s.s_oor_shifts + count "shift-range";
            s_sep_pairs = !s.s_sep_pairs + pairs;
            s_widenings = !s.s_widenings + r.f_widens;
          })
    t.prog.Cfg.funcs;
  !s
