(** Engine-parallel fuzzing batches.

    A batch generates [count] programs from consecutive seeds, runs each
    through the differential {!Oracle}, and auto-shrinks every divergence
    with {!Shrink}.  Seeds fan out across the engine's worker domains as
    warm sub-jobs of one uncached {!Trips_engine.Engine} job — fuzzing is
    never memoized; every program recomputes the full stack.  Results come
    back in seed order, so a batch report is deterministic for a fixed
    seed regardless of worker count. *)

type outcome =
  | Pass
  | Invalid of string  (** reference interpreter trapped / out of fuel *)
  | Divergent of {
      d_failures : Oracle.failure list;
      d_first : Oracle.failure;  (** the failure the shrinker minimized *)
      d_shrink : Shrink.result;
    }

type row = { b_seed : int; b_size : int; b_stmts : int; b_outcome : outcome }

type t = {
  bt_seed : int;   (** first seed *)
  bt_count : int;
  bt_presets : string list;
  bt_inject : string option;
  bt_rows : row list;  (** in seed order *)
  bt_pass : int;
  bt_invalid : int;
  bt_divergent : int;
}

val run_one :
  ?gen_cfg:Gen.cfg -> ?shrink_evals:int -> Oracle.t -> seed:int -> row

val run :
  ?workers:int ->
  ?gen_cfg:Gen.cfg ->
  ?shrink_evals:int ->
  Oracle.t ->
  seed:int ->
  count:int ->
  unit ->
  t
(** Parallel batch over seeds [seed .. seed+count-1]. *)

val plan :
  ?gen_cfg:Gen.cfg ->
  ?shrink_evals:int ->
  Oracle.t ->
  seed:int ->
  count:int ->
  (unit -> unit) list * (unit -> t)
(** The batch {!run} executes, for a caller that schedules it itself: one
    thunk per seed, independent of the others, and a [finish] that runs
    any seed its thunk did not reach and assembles the batch. *)

val divergences : t -> (row * Oracle.failure * Shrink.result) list

val to_json : t -> Trips_util.Json.t
(** Deterministic report (no wall-clock values): byte-identical across
    reruns with the same seed, count, and oracle. *)

val table : t -> Trips_util.Table.t
(** Summary table listing divergent/invalid seeds and totals. *)
