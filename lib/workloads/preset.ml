module Driver = Trips_compiler.Driver

type t = O0 | C | H | BB

let all = [ O0; C; H; BB ]
let qualities = List.filter (function C | H -> true | O0 | BB -> false) all
let name = function O0 -> "O0" | C -> "C" | H -> "H" | BB -> "BB"

let driver = function
  | O0 -> Driver.o0
  | C -> Driver.compiled
  | H -> Driver.hand
  | BB -> Driver.basic_blocks

let of_string s =
  let s = String.lowercase_ascii s in
  List.find_opt
    (fun t ->
      s = String.lowercase_ascii (name t)
      || s = String.lowercase_ascii (driver t).Driver.pname)
    all

(* H runs what the paper's hand-optimized bars ran: the hand-written EDGE
   program when the benchmark ships one. *)
let edge_program t (b : Registry.bench) =
  match (t, b.Registry.hand_edge) with
  | H, Some prog -> prog
  | _ -> Driver.compile (driver t) b.Registry.program
