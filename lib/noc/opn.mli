(** The TRIPS operand network (OPN): a 5x5 wormhole-routed mesh delivering
    one 64-bit operand per link per cycle ([6], §5.2).

    Row 0 carries the global tile and the four register tiles, column 0 the
    four data tiles, and the inner 4x4 the execution tiles.  Messages are
    single-operand and route Y-first; each hop costs one cycle plus any
    wait for the link, which is how the model exposes the contention the
    paper identifies as the top microarchitectural performance loss (§7).

    The module accumulates the per-class hop histogram of Fig 8. *)

type cls = Et_et | Et_dt | Et_rt | Et_gt | Dt_rt | Dt_et | Rt_et | Gt_any

type t
(** Link reservations.  Messages may be sent out of time order; a link is
    held for exactly the cycles claimed on it.

    {b Floor contract.}  [t] keeps a floor, a cycle below which no message
    is sent any more: {!send} and {!claim_path} raise [Invalid_argument]
    for [~now] below it.  Raising the floor ({!set_floor}) lets [t] forget
    the reservations below it, so its live state fits a ring of
    {!window} cycles of link bit rows.  A claim at or beyond
    [floor + window] spills the ring into a per-link table over cycles
    that serves the rest of the run (or until {!reset}); the answers are
    the same either way.  A caller that never raises the floor keeps it
    at 0 and runs on the table past the first {!window} cycles. *)

val create : unit -> t

val window : int
(** Cycles the reservation ring covers above the floor (4096). *)

val set_floor : t -> int -> unit
(** [set_floor t c] promises that no later message is sent at a cycle
    below [c].
    @raise Invalid_argument if [c] is below the current floor. *)

val spilled : t -> bool
(** Whether a claim has reached past the ring, so that the table answers
    from now on. *)

val send : t -> src:int * int -> dst:int * int -> cls -> now:int -> int
(** [send t ~src ~dst cls ~now] routes one operand and returns its arrival
    cycle.  A local bypass ([src = dst]) arrives at [now].
    @raise Invalid_argument if [now] is below the floor. *)

val hops : src:int * int -> dst:int * int -> int

val route : int * int -> int * int -> (int * int) list
(** [route src dst] is the Y-first dimension-ordered path as
    [(node, direction)] link claims, one per hop ([direction]: 0 = row-,
    1 = row+, 2 = col+, 3 = col-).  [send] traverses exactly this path
    (without materializing it); through {!path_ids} it is also the static
    timing analyzer's link-load path. *)

val node : int -> int -> int
(** [node row col] is the mesh node index used in {!route} steps. *)

val path_ids : src:int * int -> dst:int * int -> int list
(** The link ids claimed by [route src dst], in claim order.  Callers with
    static endpoints (the cycle simulator's per-block timing plans)
    precompute these once and replay them with {!claim_path}; the static
    timing analyzer counts them as per-link loads. *)

val claim_path :
  t -> ci:int -> paths:int array -> off:int -> len:int -> now:int -> int
(** [claim_path t ~ci ~paths ~off ~len ~now] is {!send} over the
    precomputed path [paths.(off) .. paths.(off + len - 1)] for a message
    of class index [ci] ([len] = hop count): identical link claims, in the
    same order, and identical profile accounting.
    @raise Invalid_argument if [now] is below the floor. *)

type profile = {
  packets : int array array;   (* class index x hop bucket (0..5, 5 = 5+) *)
  mutable contention_cycles : int;
  mutable total_packets : int;
  mutable total_hops : int;
}

val profile : t -> profile
val class_index : cls -> int
val class_name : int -> string
val average_hops : t -> float
val reset : t -> unit
(** Clears every reservation and the profile, and lowers the floor to 0. *)
