(** Target prediction: branch target buffer, call target buffer and return
    address stack.  These supply the "where" half of next-block prediction
    (the TRIPS prototype's multi-component target predictor, §5.1) and the
    BTB of the superscalar models.  The paper attributes much of the SPEC
    call/return misprediction to undersized call/return structures (§7);
    sizes are parameters so the Fig 7 "improved" configuration can scale
    them. *)

type config = {
  btb_entries : int;            (* direct-mapped, tagged *)
  ctb_entries : int;            (* call targets *)
  ras_depth : int;              (* return address stack *)
}

val prototype : config
(** Small structures matching the 5 KB prototype budget. *)

val improved : config
(** The scaled-up 9 KB "lessons learned" configuration of Fig 7 (I). *)

type t

val create : config -> t

type kind = Jump | Call | Ret

val predict : t -> pc:int -> kind -> int option
(** Predicted target for a transfer of the given kind at [pc]; [None] when
    the relevant structure has no entry (counts as a misprediction). *)

val update : t -> ?fallthrough:int -> pc:int -> kind -> target:int -> unit
(** Record the actual target (push/pop the RAS for calls/returns).
    [fallthrough] is the address the matching return should resume at
    (defaults to [pc + 1]). *)

val storage_bits : config -> int
