(** Bounded multi-producer multi-consumer work queue behind {!Pool}.

    Producers never block: {!try_push} admits an item or reports the
    queue full, and the caller sheds the work.  Worker domains {!pop};
    [pop] returns [None] only after {!close} with the queue drained.

    Shutdown protocol: {!close} rejects further producers but lets
    consumers keep popping until the queue is empty — items admitted
    before the close are never lost. *)

type 'a t

exception Closed

val create : capacity:int -> 'a t
(** @raise Invalid_argument if [capacity < 1]. *)

val try_push : 'a t -> 'a -> bool
(** Non-blocking admission: [false] when the queue holds [capacity]
    items (the caller sheds the work instead of waiting).
    @raise Closed if the queue was closed. *)

val pop : 'a t -> 'a option
(** Blocks until an item or {!close}; [None] means closed and drained. *)

val close : 'a t -> unit
(** Wake every blocked consumer; further pushes raise.  Already-queued
    items remain poppable. *)

val length : 'a t -> int
