(** Composed memory hierarchy: L1 (I or D) -> L2 -> DRAM, returning access
    latencies and keeping per-level statistics.

    DRAM is a fixed-latency, bounded-bandwidth model: each access occupies
    the channel for [bytes/width] cycles, modeling the dual DDR controllers
    whose achievable bandwidth Fig 8 reports. *)

type dram_config = {
  dram_latency : int;          (* core cycles to first data *)
  bytes_per_cycle : float;     (* sustained channel bandwidth *)
}

val trips_dram : dram_config

type t

val create :
  l1:Cache.config -> l2:Cache.config option -> dram:dram_config -> t
(** A hierarchy with a private L1, optional shared L2, and DRAM. *)

val l1 : t -> Cache.t
val l2 : t -> Cache.t option

val access : t -> addr:int -> write:bool -> now:int -> int * bool
(** [(latency, l1_hit)] for an access issued at cycle [now].  The latency
    includes NUCA distance, DRAM latency and DRAM channel queueing. *)

val reset : t -> unit
