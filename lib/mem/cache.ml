type config = {
  name : string;
  size_kb : int;
  assoc : int;
  line : int;
  banks : int;
  hit_latency : int;
  nuca_step : int;
}

let trips_l1d =
  { name = "L1D"; size_kb = 32; assoc = 2; line = 64; banks = 4; hit_latency = 2;
    nuca_step = 0 }

let trips_l1i =
  { name = "L1I"; size_kb = 80; assoc = 2; line = 64; banks = 5; hit_latency = 1;
    nuca_step = 0 }

let trips_l2 =
  { name = "L2"; size_kb = 1024; assoc = 8; line = 64; banks = 16; hit_latency = 8;
    nuca_step = 1 }

type stats = {
  mutable accesses : int;
  mutable misses : int;
  mutable evictions : int;
}

type t = {
  cfg : config;
  sets : int;
  tags : int array;            (* sets * assoc, -1 = invalid *)
  lru : int array;             (* timestamps *)
  st : stats;
  mutable tick : int;
}

let create cfg =
  let sets = cfg.size_kb * 1024 / cfg.line / cfg.assoc in
  assert (sets > 0);
  {
    cfg;
    sets;
    tags = Array.make (sets * cfg.assoc) (-1);
    lru = Array.make (sets * cfg.assoc) 0;
    st = { accesses = 0; misses = 0; evictions = 0 };
    tick = 0;
  }

let config t = t.cfg
let stats t = t.st

let line_of t addr = addr / t.cfg.line

(* The way of set-base [base] holding line [tag] as an index into
   [tags], or -1. *)
let find_way t base tag =
  let w = ref 0 and found = ref (-1) in
  while !found < 0 && !w < t.cfg.assoc do
    if t.tags.(base + !w) = tag then found := base + !w;
    incr w
  done;
  !found

let probe t ~addr =
  let line = line_of t addr in
  find_way t ((line mod t.sets) * t.cfg.assoc) line >= 0

let access t ~addr ~write =
  ignore write;
  t.tick <- t.tick + 1;
  t.st.accesses <- t.st.accesses + 1;
  let line = line_of t addr in
  let base = (line mod t.sets) * t.cfg.assoc in
  let idx = find_way t base line in
  if idx >= 0 then begin
    t.lru.(idx) <- t.tick;
    true
  end
  else begin
    t.st.misses <- t.st.misses + 1;
    (* victim = least recently used way *)
    let victim = ref base in
    for w = 1 to t.cfg.assoc - 1 do
      if t.lru.(base + w) < t.lru.(!victim) then victim := base + w
    done;
    if t.tags.(!victim) >= 0 then t.st.evictions <- t.st.evictions + 1;
    t.tags.(!victim) <- line;
    t.lru.(!victim) <- t.tick;
    false
  end

let bank_of t ~addr = line_of t addr mod t.cfg.banks

let hit_latency_of_bank t bank =
  (* NUCA: banks farther from the requesting edge cost more *)
  t.cfg.hit_latency + (t.cfg.nuca_step * (bank mod 4))

let reset t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.lru 0 (Array.length t.lru) 0;
  t.st.accesses <- 0;
  t.st.misses <- 0;
  t.st.evictions <- 0;
  t.tick <- 0
