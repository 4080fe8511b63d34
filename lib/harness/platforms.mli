(** Shared experiment plumbing: compile and run every benchmark on every
    modeled platform, memoizing results so each (benchmark, platform) pair
    simulates once per process even though several figures consume it.

    Every runner checks the architectural result against the interpreter's
    golden value and raises if a pipeline miscomputes — experiments can
    never silently report numbers from a broken simulation. *)

type quality = Trips_workloads.Preset.t = O0 | C | H | BB
(** Code quality: the paper's compiled (C) and hand-optimized (H) bars
    and the O0/BB ablations; programs come from
    {!Trips_workloads.Preset.edge_program}. *)

val edge_program : quality -> Trips_workloads.Registry.bench -> Trips_edge.Block.program

val edge_stats : quality -> Trips_workloads.Registry.bench -> Trips_edge.Exec.stats
(** Functional-execution statistics (Figs 3–5). *)

val trips : quality -> Trips_workloads.Registry.bench -> Trips_sim.Core.result
(** Cycle-level TRIPS prototype run (Figs 6, 8, 9, 11, 12, Table 3). *)

val risc : ?unroll:int -> Trips_workloads.Registry.bench -> Trips_risc.Exec.stats
(** PowerPC-baseline counts (the gcc-shaped build; [unroll] for icc). *)

val super :
  Trips_superscalar.Ooo.config -> icc:bool -> Trips_workloads.Registry.bench ->
  Trips_superscalar.Ooo.result
(** Reference-platform cycle run; [icc] selects the more aggressively
    optimized build. *)

val ideal :
  Trips_limit.Ideal.config -> tag:string -> quality ->
  Trips_workloads.Registry.bench -> Trips_limit.Ideal.result

exception Mismatch of string
(** A pipeline produced a result different from the interpreter's. *)

(** Per-process memo tables, one per kind of result, keyed by a typed
    tuple (keys are compared and hashed structurally, so they hold no
    closures).  A table is domain-safe and deduplicates concurrent
    computations of one key, so engine warm sub-jobs can force entries in
    parallel; a computation that raises caches nothing. *)
module Memo : sig
  type ('k, 'v) t

  val create : unit -> ('k, 'v) t

  val find_or_compute : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
  (** The cached value of [key], else [f ()] stored under it.  A caller
      that finds [key] in flight in another domain waits for its
      result; if that computation raises, the waiter computes again.
      An exception from [f] reaches only its own caller. *)
end

val clear_caches : unit -> unit
(** Empty every memo table created so far, the platform runners' and
    every other {!Memo.create}'s. *)
