(** Per-block dataflow verification over enumerated predicate paths,
    mirroring the run-time obligations of {!Trips_edge.Exec.exec_block}.

    Classes: ["exit-path"] (zero or several branches fire on a path),
    ["store-path"] (a store does not complete on a path), ["write-path"]
    (a write slot receives zero or several tokens), ["port-conflict"]
    (double delivery to an operand port), ["null-flow"] (a null token
    reaches a write slot, predicate or ALU/load-address port),
    ["deadlock"] (a live instruction that can fire on no path),
    ["dead-code"] (warning: result reaches no write, store or branch),
    ["path-explosion"] (info: enumeration truncated). *)

val check :
  ?max_paths:int -> fname:string -> Trips_edge.Block.t -> Diag.t list
