(* Where a run writes: traces and the serve workload's cache directories,
   all under bench/perf/_out (ignored by bench/perf/.gitignore). *)

let dir = Filename.concat "bench" (Filename.concat "perf" "_out")
let ensure () = if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
