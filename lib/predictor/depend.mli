(** Store-load dependence predictor: the partitioned load-wait table the
    data tiles use (§5.1).  A load that once issued past a conflicting
    earlier store has its entry set and afterwards waits for all earlier
    stores; the table is cleared periodically so stale entries do not
    serialize forever. *)

type t

val create : ?entries:int -> ?decay_interval:int -> unit -> t
(** Defaults: 1024 entries, decay every 100k accesses. *)

val site_id : block:string -> int -> int
(** [site_id ~block index] is the stable identifier of one load site,
    a polymorphic hash of [(block, index)].  The cycle simulator
    precomputes these in its static per-block timing plans instead of
    hashing on every committed instance.  Note the historical asymmetry
    it preserves: {!should_wait} is keyed by the load's {e instruction
    index}, {!record_violation} by its {e LSID} — kept as-is because the
    golden parity fixtures pin the resulting behavior. *)

val should_wait : t -> load_id:int -> bool
val record_violation : t -> load_id:int -> unit
