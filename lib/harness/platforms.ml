module Ast = Trips_tir.Ast
module Ty = Trips_tir.Ty
module Image = Trips_tir.Image
module Registry = Trips_workloads.Registry
module Exec = Trips_edge.Exec
module Core = Trips_sim.Core
module Ooo = Trips_superscalar.Ooo
module Ideal = Trips_limit.Ideal
module Risc = Trips_risc
module Preset = Trips_workloads.Preset

type quality = Preset.t = O0 | C | H | BB

exception Mismatch of string

let check name expected got =
  if expected <> got then
    raise
      (Mismatch
         (Printf.sprintf "%s: expected %s, got %s" name
            (match expected with Some v -> Ty.value_to_string v | None -> "-")
            (match got with Some v -> Ty.value_to_string v | None -> "-")))

(* The memo table is shared by every engine worker domain: guard it with a
   mutex, and track in-flight keys so concurrent requests for the same
   (benchmark, platform) pair simulate once — the losers block until the
   winner publishes instead of duplicating a multi-second run. *)
let table : (string, Obj.t) Hashtbl.t = Hashtbl.create 256
let table_lock = Mutex.create ()
let inflight : (string, unit) Hashtbl.t = Hashtbl.create 16
let inflight_done = Condition.create ()

let cached key f =
  Mutex.lock table_lock;
  let rec obtain () =
    match Hashtbl.find_opt table key with
    | Some v ->
      Mutex.unlock table_lock;
      Obj.obj v
    | None ->
      if Hashtbl.mem inflight key then begin
        Condition.wait inflight_done table_lock;
        obtain ()
      end
      else begin
        Hashtbl.replace inflight key ();
        Mutex.unlock table_lock;
        let v = try Ok (f ()) with e -> Error e in
        Mutex.lock table_lock;
        Hashtbl.remove inflight key;
        (match v with
        | Ok v -> Hashtbl.replace table key (Obj.repr v)
        | Error _ -> ());
        Condition.broadcast inflight_done;
        Mutex.unlock table_lock;
        match v with Ok v -> v | Error e -> raise e
      end
  in
  obtain ()

let memo key f = cached key f

let clear_caches () =
  Mutex.lock table_lock;
  Hashtbl.reset table;
  Mutex.unlock table_lock

let edge_program q (b : Registry.bench) : Trips_edge.Block.program =
  cached (Printf.sprintf "prog/%s/%s" (Preset.name q) b.Registry.name) (fun () ->
      Preset.edge_program q b)

let edge_stats q (b : Registry.bench) : Exec.stats =
  cached (Printf.sprintf "exec/%s/%s" (Preset.name q) b.Registry.name) (fun () ->
      let prog = edge_program q b in
      let image = Image.build b.Registry.program.Ast.globals in
      let r = Exec.run prog image ~entry:"main" ~args:[] in
      let exp_v, _ = Registry.golden b in
      check (b.Registry.name ^ "/edge-" ^ Preset.name q) exp_v r.Exec.ret;
      r.Exec.stats)

let trips_with config ~tag q (b : Registry.bench) : Core.result =
  cached (Printf.sprintf "trips/%s/%s/%s" tag (Preset.name q) b.Registry.name)
    (fun () ->
      let prog = edge_program q b in
      let image = Image.build b.Registry.program.Ast.globals in
      let r = Core.run ~config prog image ~entry:"main" ~args:[] in
      let exp_v, _ = Registry.golden b in
      check (b.Registry.name ^ "/trips-" ^ tag ^ Preset.name q) exp_v r.Core.ret;
      r)

let trips q b = trips_with Core.prototype ~tag:"proto" q b

let risc ?(unroll = 1) (b : Registry.bench) : Risc.Exec.stats =
  cached (Printf.sprintf "risc/u%d/%s" unroll b.Registry.name) (fun () ->
      let prog = Risc.Codegen.compile ~unroll b.Registry.program in
      let image = Image.build b.Registry.program.Ast.globals in
      let r = Risc.Exec.run prog image ~entry:"main" ~args:[] in
      let exp_v, _ = Registry.golden b in
      check (b.Registry.name ^ "/risc") exp_v (Risc.Exec.ret_value r b.Registry.ret);
      r.Risc.Exec.stats)

let super (cfg : Ooo.config) ~icc (b : Registry.bench) : Ooo.result =
  cached
    (Printf.sprintf "super/%s/%s/%s" cfg.Ooo.name (if icc then "icc" else "gcc")
       b.Registry.name)
    (fun () ->
      let unroll = if icc then 4 else 1 in
      let prog = Risc.Codegen.compile ~unroll b.Registry.program in
      let image = Image.build b.Registry.program.Ast.globals in
      let r = Ooo.run cfg prog image ~entry:"main" ~args:[] in
      let got =
        match b.Registry.ret with
        | None -> None
        | Some Ty.I64 -> Some (Ty.Vi r.Ooo.ret_int)
        | Some Ty.F64 -> Some (Ty.Vf r.Ooo.ret_flt)
      in
      let exp_v, _ = Registry.golden b in
      check (b.Registry.name ^ "/" ^ cfg.Ooo.name) exp_v got;
      r)

let ideal (cfg : Ideal.config) ~tag q (b : Registry.bench) : Ideal.result =
  cached (Printf.sprintf "ideal/%s/%s/%s" tag (Preset.name q) b.Registry.name)
    (fun () ->
      let prog = edge_program q b in
      let image = Image.build b.Registry.program.Ast.globals in
      let r = Ideal.run ~config:cfg prog image ~entry:"main" ~args:[] in
      let exp_v, _ = Registry.golden b in
      check (b.Registry.name ^ "/ideal-" ^ tag) exp_v r.Ideal.ret;
      r)
