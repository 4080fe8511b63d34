(** Structured diagnostics for the EDGE static analyzer.

    Every finding carries a stable diagnostic class (["exit-path"],
    ["deadlock"], ["dead-code"], ...) used by the mutation test suite and by
    machine consumers of the JSON report, plus the location (function, block,
    instruction index) and an optional suggested fix. *)

type severity = Info | Warning | Error

type t = {
  sev : severity;
  pass : string;          (* originating analysis pass: "structure", "paths",
                             "liveness", "timing" ("driver" for compile
                             failures reported by the lint CLI) *)
  cls : string;           (* stable diagnostic class identifier *)
  fname : string;         (* enclosing function, "" when unknown *)
  block : string;         (* block label, "" for program-level findings *)
  inst : int option;      (* instruction index within the block *)
  msg : string;
  fix : string option;    (* suggested fix *)
  count : int;            (* occurrences collapsed by {!dedup}; 1 from {!make} *)
}

val make :
  ?sev:severity ->
  ?pass:string ->
  ?fname:string ->
  ?block:string ->
  ?inst:int ->
  ?fix:string ->
  string ->
  string ->
  t
(** [make cls msg] builds a diagnostic; severity defaults to [Error].
    [pass] names the originating analysis pass (stable, machine-consumed:
    lint and timing JSON reports can be merged and filtered on it). *)

val sort : t list -> t list
(** Most severe first, then by location. *)

val errors : t list -> int
val warnings : t list -> int
(** Severity totals; collapsed findings count with their multiplicity. *)

val dedup : t list -> t list
(** Stable deduplication: findings sharing severity, pass, class and
    location collapse into the first occurrence with a summed [count].
    Text and JSON emitters render the multiplicity. *)

val failed : strict:bool -> t list -> bool
(** A report fails when it contains errors; under [~strict:true] warnings
    fail it too.  [Info] findings never fail a report. *)

val to_line : t -> string
val render_text : t list -> string
val to_json : t -> Trips_util.Json.t
val list_to_json : t list -> Trips_util.Json.t
