(** Set-associative cache timing model (tags + LRU only; data lives in the
    shared {!Trips_tir.Image}).

    Banking matters to TRIPS: the L1 D-cache is four single-ported 8 KB
    banks partitioned by address, the L2 is sixteen 64 KB NUCA banks whose
    hit latency grows with distance (§5.2).  [bank_of] exposes the bank so
    tile models can arbitrate ports; NUCA latency is modeled with a per-bank
    latency adder. *)

type config = {
  name : string;
  size_kb : int;
  assoc : int;
  line : int;                  (* bytes, power of two *)
  banks : int;                 (* address-partitioned by line *)
  hit_latency : int;           (* cycles *)
  nuca_step : int;             (* extra cycles per unit of bank distance *)
}

val trips_l1d : config         (* 32 KB, 4 banks, 2-cycle hit *)
val trips_l1i : config         (* 80 KB, 5 banks *)
val trips_l2 : config          (* 1 MB, 16 NUCA banks *)

type t

type stats = {
  mutable accesses : int;
  mutable misses : int;
  mutable evictions : int;
}

val create : config -> t
val config : t -> config
val stats : t -> stats

val access : t -> addr:int -> write:bool -> bool
(** [true] = hit.  Misses allocate (write-allocate) and update LRU. *)

val probe : t -> addr:int -> bool
(** Hit check without state change. *)

val bank_of : t -> addr:int -> int

val hit_latency_of_bank : t -> int -> int
(** Hit latency including the NUCA distance adder for that bank. *)

val reset : t -> unit
