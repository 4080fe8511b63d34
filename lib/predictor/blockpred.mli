(** The TRIPS next-block predictor (§5.1).

    Predicts, for each fetched block, which of its (up to eight) exit
    branches will fire — a local/global tournament {e exit predictor} over
    3-bit exit numbers, with per-block local exit histories — and the target address of that exit through the
    multi-component {!Target} predictor (BTB for jumps, call target buffer
    and return address stack for calls/returns).

    A prediction is correct only if the resulting next-block address
    matches the executed successor, which is the accounting Fig 7 uses. *)

type config = {
  exit_entries : int;          (* entries in each exit table *)
  exit_hist_bits : int;        (* global exit-history length (3 bits/exit) *)
  target : Target.config;
}

val prototype : config
(** The 5 KB + 5 KB prototype configuration (Fig 7, B and H bars). *)

val improved : config
(** The scaled "lessons-learned" configuration (Fig 7, I bars). *)

type t

val create : config -> t

type kind = Kjump | Kcall | Kret

type outcome = {
  o_block : int;               (* fetched block id *)
  o_exit : int;                (* exit index that fired, 0..7 *)
  o_kind : kind;
  o_target : int;              (* executed successor block id *)
  o_fallthrough : int;         (* resume block for a call's return *)
}

val predict : t -> block:int -> int option
(** Predicted next-block id, [None] if no target information exists yet. *)

val update : t -> outcome -> unit

val storage_bits : config -> int
