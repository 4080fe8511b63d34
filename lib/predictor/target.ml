type config = {
  btb_entries : int;
  ctb_entries : int;
  ras_depth : int;
}

let prototype = { btb_entries = 512; ctb_entries = 32; ras_depth = 8 }
let improved = { btb_entries = 1024; ctb_entries = 128; ras_depth = 32 }

type entry = { mutable tag : int; mutable target : int }

type t = {
  cfg : config;
  btb : entry array;
  ctb : entry array;
  ras : int array;
  mutable ras_top : int;        (* number of valid entries *)
}

type kind = Jump | Call | Ret

let create cfg =
  {
    cfg;
    btb = Array.init cfg.btb_entries (fun _ -> { tag = -1; target = 0 });
    ctb = Array.init cfg.ctb_entries (fun _ -> { tag = -1; target = 0 });
    ras = Array.make cfg.ras_depth 0;
    ras_top = 0;
  }

let lookup table n ~pc =
  let e = table.(pc land (n - 1)) in
  if e.tag = pc then Some e.target else None

let predict t ~pc kind =
  match kind with
  | Jump -> lookup t.btb t.cfg.btb_entries ~pc
  | Call -> lookup t.ctb t.cfg.ctb_entries ~pc
  | Ret ->
    if t.ras_top > 0 then Some t.ras.(t.ras_top - 1) else None

let update t ?fallthrough ~pc kind ~target =
  match kind with
  | Jump ->
    let e = t.btb.(pc land (t.cfg.btb_entries - 1)) in
    e.tag <- pc;
    e.target <- target
  | Call ->
    let e = t.ctb.(pc land (t.cfg.ctb_entries - 1)) in
    e.tag <- pc;
    e.target <- target;
    (* push the fall-through "return address": callers record it as the
       value the matching return must produce *)
    if t.ras_top < t.cfg.ras_depth then begin
      t.ras.(t.ras_top) <- Option.value ~default:(pc + 1) fallthrough;
      t.ras_top <- t.ras_top + 1
    end
    else begin
      (* overflow: shift (oldest entry lost, as in hardware) *)
      Array.blit t.ras 1 t.ras 0 (t.cfg.ras_depth - 1);
      t.ras.(t.cfg.ras_depth - 1) <- Option.value ~default:(pc + 1) fallthrough
    end
  | Ret -> if t.ras_top > 0 then t.ras_top <- t.ras_top - 1

let storage_bits cfg =
  (* tag + target words, roughly 64 bits per entry *)
  (64 * cfg.btb_entries) + (64 * cfg.ctb_entries) + (32 * cfg.ras_depth)
