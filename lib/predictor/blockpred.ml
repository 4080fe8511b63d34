type config = {
  exit_entries : int;
  exit_hist_bits : int;
  target : Target.config;
}

let prototype =
  { exit_entries = 2048; exit_hist_bits = 9; target = Target.prototype }

let improved =
  { exit_entries = 4096; exit_hist_bits = 12; target = Target.improved }

type exit_entry = { mutable exit_id : int; mutable conf : int }

type t = {
  cfg : config;
  local_hist : int array;            (* per-block exit history, 3 bits/exit *)
  local : exit_entry array;          (* indexed by block ^ its local history *)
  global : exit_entry array;         (* indexed by block ^ global history *)
  choice : int array;                (* per block: trust local or global *)
  (* per (block, predicted exit) target cache, via the Target module: the
     BTB key mixes the exit index into the address *)
  targets : Target.t;
  mutable ehist : int;               (* global exit history, 3 bits/exit *)
}

type kind = Kjump | Kcall | Kret

type outcome = {
  o_block : int;
  o_exit : int;
  o_kind : kind;
  o_target : int;
  o_fallthrough : int;
}

let create cfg =
  {
    cfg;
    local_hist = Array.make cfg.exit_entries 0;
    local = Array.init cfg.exit_entries (fun _ -> { exit_id = 0; conf = 0 });
    global = Array.init cfg.exit_entries (fun _ -> { exit_id = 0; conf = 0 });
    choice = Array.make cfg.exit_entries 1;
    targets = Target.create cfg.target;
    ehist = 0;
  }

let mask t = t.cfg.exit_entries - 1
let hmask t = (1 lsl t.cfg.exit_hist_bits) - 1

let indices t ~block =
  let hi = block land mask t in
  let lh = t.local_hist.(hi) land hmask t in
  let li = (block lxor (lh * 0x85EB)) land mask t in
  let gi = (block lxor (t.ehist * 0x9E37)) land mask t in
  (hi, li, gi)

(* BTB keys distinguish exits of the same block. *)
let btb_key block exit_id = (block * 8) + exit_id

let predicted_exit t ~block =
  let hi, li, gi = indices t ~block in
  if t.choice.(hi) >= 2 then t.global.(gi).exit_id else t.local.(li).exit_id

(* Without decoding the block we do not know the exit's kind; the hardware
   stores it in the BTB.  We try return-address stack first (returns hit
   there), then the jump/call tables. *)
let predict t ~block =
  let e = predicted_exit t ~block in
  let key = btb_key block e in
  match Target.predict t.targets ~pc:key Target.Jump with
  | Some tgt -> Some tgt
  | None -> (
    match Target.predict t.targets ~pc:key Target.Call with
    | Some tgt -> Some tgt
    | None -> Target.predict t.targets ~pc:key Target.Ret)

let update t (o : outcome) =
  let hi, li, gi = indices t ~block:o.o_block in
  let train (e : exit_entry) =
    if e.exit_id = o.o_exit then begin
      if e.conf < 3 then e.conf <- e.conf + 1
    end
    else if e.conf > 0 then e.conf <- e.conf - 1
    else e.exit_id <- o.o_exit
  in
  let lok = t.local.(li).exit_id = o.o_exit in
  let gok = t.global.(gi).exit_id = o.o_exit in
  if lok <> gok then begin
    let up = gok in
    if up then (if t.choice.(hi) < 3 then t.choice.(hi) <- t.choice.(hi) + 1)
    else if t.choice.(hi) > 0 then t.choice.(hi) <- t.choice.(hi) - 1
  end;
  train t.local.(li);
  train t.global.(gi);
  t.local_hist.(hi) <- ((t.local_hist.(hi) lsl 3) lor (o.o_exit land 7)) land hmask t;
  t.ehist <- ((t.ehist lsl 3) lor (o.o_exit land 7)) land hmask t;
  let key = btb_key o.o_block o.o_exit in
  match o.o_kind with
  | Kjump -> Target.update t.targets ~pc:key Target.Jump ~target:o.o_target
  | Kcall ->
    Target.update t.targets ~pc:key Target.Call ~target:o.o_target
      ~fallthrough:o.o_fallthrough
  | Kret -> Target.update t.targets ~pc:key Target.Ret ~target:o.o_target

let storage_bits cfg =
  (* local histories + two tables of 3-bit exit id + 2-bit confidence +
     chooser *)
  (cfg.exit_entries * cfg.exit_hist_bits)
  + (2 * cfg.exit_entries * 5) + (cfg.exit_entries * 2)
  + Target.storage_bits cfg.target
