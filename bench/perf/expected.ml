(* The correctness oracle: per program, the digests recorded on the
   commit that defined the benchmark.  A run recomputes the same digest
   for every operation and compares it structurally, so any change to a
   return value, a simulated statistic, a compiled block count or a
   translation-validation verdict counts the operation as failed.

   The digests hold simulated (modelled) quantities only; a change that
   touches nothing but host speed leaves every one of them equal. *)

module Json = Trips_util.Json
module Core = Trips_sim.Core
module Sampled = Trips_sim.Sampled
module Transval = Trips_analysis.Transval
module Block = Trips_edge.Block
module Ty = Trips_tir.Ty

let path = Filename.concat "bench" (Filename.concat "perf" "expected.json")

let ret_string = function None -> "none" | Some v -> Ty.value_to_string v

let detail (r : Core.result) =
  let t = r.Core.timing in
  Json.Obj
    [
      ("ret", Json.Str (ret_string r.Core.ret));
      ("cycles", Json.Int t.Core.cycles);
      ("blocks", Json.Int t.Core.blocks);
      ("branch_mispredicts", Json.Int t.Core.branch_mispredicts);
      ("callret_mispredicts", Json.Int t.Core.callret_mispredicts);
      ("load_flushes", Json.Int t.Core.load_flushes);
      ("icache_misses", Json.Int t.Core.icache_misses);
      ("dcache_misses", Json.Int t.Core.dcache_misses);
      ("l2_misses", Json.Int t.Core.l2_misses);
      ("opn_packets", Json.Int r.Core.opn.Trips_noc.Opn.total_packets);
      ("opn_hops", Json.Int r.Core.opn.Trips_noc.Opn.total_hops);
      ("opn_contention", Json.Int r.Core.opn.Trips_noc.Opn.contention_cycles);
    ]

let sampled (r : Core.result) (e : Sampled.estimate) =
  Json.Obj
    [
      ("ret", Json.Str (ret_string r.Core.ret));
      ("cycles", Json.Int (int_of_float (Float.round e.Sampled.es_cycles)));
      ("intervals", Json.Int e.Sampled.es_intervals);
      ("measured_blocks", Json.Int e.Sampled.es_measured_blocks);
      ("full", Json.Bool e.Sampled.es_full);
    ]

let edge_blocks (p : Block.program) =
  List.fold_left (fun a (f : Block.func) -> a + List.length f.Block.blocks) 0
    p.Block.funcs

let compile (p : Block.program) = Json.Obj [ ("edge_blocks", Json.Int (edge_blocks p)) ]

let transval reports =
  let s = Transval.summarize reports in
  Json.Obj
    [
      ("proved", Json.Int s.Transval.n_proved);
      ("concrete", Json.Int s.Transval.n_concrete);
      ("refuted", Json.Int s.Transval.n_refuted);
    ]

type t = Json.t

let load () : t =
  match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Ok v -> v
  | Error e -> failwith (path ^ ": " ^ e)

let find (t : t) ~bench kind =
  Option.bind (Json.member "programs" t) (fun ps ->
      Option.bind (Json.member bench ps) (Json.member kind))

let matches t ~bench kind digest = find t ~bench kind = Some digest

(* A recorded integer field of one digest, e.g. the exact cycles. *)
let int_field t ~bench kind field =
  Option.bind (find t ~bench kind) (Json.mem_int field)

let write programs =
  let oc = open_out_bin path in
  output_string oc
    (Json.to_string
       (Json.Obj [ ("schema", Json.Int 1); ("programs", Json.Obj programs) ]));
  close_out oc
