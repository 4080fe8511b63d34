(** Minimal JSON emitter and parser.

    The engine writes experiment tables, run manifests and benchmark
    summaries as JSON; the service front door ({!Trips_serve}) also
    *parses* JSON request bodies, so the module carries a strict
    recursive-descent parser alongside the emitter.  Output is
    deterministic: two structurally equal values always render to the
    same bytes (object fields keep insertion order, floats use a fixed
    [%.12g] spelling). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val escape : string -> string
(** A quoted JSON string literal for [s], escaping quotes, backslashes and
    control characters. *)

val to_string : t -> string
(** Pretty-printed (2-space indent), trailing newline included.  NaN and
    infinities render as [null]. *)

val parse : string -> (t, string) result
(** Strict JSON parser: one complete value, no trailing bytes.  Numbers
    without fraction or exponent parse as [Int] (falling back to [Float]
    beyond [int] range); [\u] escapes decode to UTF-8, surrogate pairs
    combined and lone surrogates replaced with U+FFFD.  Errors carry the
    byte offset. *)

(** {2 Accessors}

    Shape-checked projections used by the request codecs; all return
    [None] instead of raising on a type mismatch. *)

val member : string -> t -> t option
(** Field of an [Obj] (first occurrence); [None] on any other shape. *)

val as_str : t -> string option
val as_bool : t -> bool option
val as_int : t -> int option

val as_float : t -> float option
(** Accepts [Int] too (JSON does not distinguish). *)

val as_list : t -> t list option

val mem_str : string -> t -> string option
(** [mem_str k v] = [member k v |> as_str]; likewise the two below. *)

val mem_int : string -> t -> int option
val mem_float : string -> t -> float option
