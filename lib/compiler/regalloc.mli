(** Register allocation for cross-hyperblock values.

    Inside a TRIPS block, values flow producer-to-consumer and never touch
    the register file; only values live across hyperblock boundaries need an
    architectural register (§4.3).  This module computes block-granularity
    liveness over an {!Hyperblock.hfunc} and colors the cross-block vregs
    onto the 128 architectural registers.  ABI-pinned vregs (return value,
    arguments) keep their fixed registers. *)

type t = {
  assign : (Trips_tir.Cfg.vreg, int) Hashtbl.t;  (* vreg -> arch reg *)
  live_in : (string, Trips_tir.Cfg.vreg list) Hashtbl.t;
  live_out : (string, Trips_tir.Cfg.vreg list) Hashtbl.t;
  write_set : (string, Trips_tir.Cfg.vreg list) Hashtbl.t;
      (* per block: defs that must be written to the register file *)
}

exception Pressure of string
(** Raised when the greedy coloring finds no free register among r1..r127
    (r0 stays free as scratch), e.g. for more than 127 values live across
    one block boundary (the paper's workloads never spill with 128
    registers; we fail loudly instead of implementing spill code). *)

val allocate : Hyperblock.hfunc -> t

val reg_of : t -> Trips_tir.Cfg.vreg -> int
(** @raise Not_found for values that never cross a block boundary. *)
