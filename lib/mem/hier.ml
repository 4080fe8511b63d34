type dram_config = {
  dram_latency : int;
  bytes_per_cycle : float;
}

(* 366 MHz core, 100/200 MHz DDR: ~70 core cycles to first data, and the
   dual controllers sustain ~5.6 GB/s peak = ~15 bytes per core cycle;
   protocol overheads make ~60% of that achievable (§5.2). *)
let trips_dram = { dram_latency = 70; bytes_per_cycle = 9.0 }

type t = {
  l1c : Cache.t;
  l2c : Cache.t option;
  dram : dram_config;
  mutable dram_free_at : int;
}

let create ~l1 ~l2 ~dram =
  {
    l1c = Cache.create l1;
    l2c = Option.map Cache.create l2;
    dram;
    dram_free_at = 0;
  }

let l1 t = t.l1c
let l2 t = t.l2c

let dram_access t ~now =
  let line = (Cache.config t.l1c).Cache.line in
  let occupancy =
    int_of_float (ceil (float_of_int line /. t.dram.bytes_per_cycle))
  in
  let start = max now t.dram_free_at in
  t.dram_free_at <- start + occupancy;
  (start - now) + t.dram.dram_latency + occupancy

let access t ~addr ~write ~now =
  if Cache.access t.l1c ~addr ~write then
    (Cache.hit_latency_of_bank t.l1c (Cache.bank_of t.l1c ~addr), true)
  else
    let l1_lat = (Cache.config t.l1c).Cache.hit_latency in
    match t.l2c with
    | None -> (l1_lat + dram_access t ~now, false)
    | Some l2 ->
      if Cache.access l2 ~addr ~write then
        (l1_lat + Cache.hit_latency_of_bank l2 (Cache.bank_of l2 ~addr), false)
      else
        (l1_lat + Cache.hit_latency_of_bank l2 (Cache.bank_of l2 ~addr)
         + dram_access t ~now:(now + l1_lat),
         false)

let reset t =
  Cache.reset t.l1c;
  Option.iter Cache.reset t.l2c;
  t.dram_free_at <- 0
