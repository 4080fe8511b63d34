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

module Memo = struct
  (* Every engine worker domain shares a table: a mutex guards it, and
     in-flight keys are tracked so concurrent requests for one key compute
     once — the losers block until the winner publishes instead of
     duplicating a multi-second run. *)
  type ('k, 'v) t = {
    entries : ('k, 'v) Hashtbl.t;
    inflight : ('k, unit) Hashtbl.t;
    lock : Mutex.t;
    settled : Condition.t;
  }

  (* one reset per table ever created, for [clear_caches] *)
  let resets : (unit -> unit) list Atomic.t = Atomic.make []

  let create () =
    let t =
      { entries = Hashtbl.create 64; inflight = Hashtbl.create 4;
        lock = Mutex.create (); settled = Condition.create () }
    in
    let reset () =
      Mutex.lock t.lock;
      Hashtbl.reset t.entries;
      Mutex.unlock t.lock
    in
    let rec register () =
      let rs = Atomic.get resets in
      if not (Atomic.compare_and_set resets rs (reset :: rs)) then register ()
    in
    register ();
    t

  let find_or_compute t key f =
    Mutex.lock t.lock;
    let rec obtain () =
      match Hashtbl.find_opt t.entries key with
      | Some v ->
        Mutex.unlock t.lock;
        v
      | None ->
        if Hashtbl.mem t.inflight key then begin
          Condition.wait t.settled t.lock;
          obtain ()
        end
        else begin
          Hashtbl.replace t.inflight key ();
          Mutex.unlock t.lock;
          let v = try Ok (f ()) with e -> Error e in
          Mutex.lock t.lock;
          Hashtbl.remove t.inflight key;
          (match v with Ok v -> Hashtbl.replace t.entries key v | Error _ -> ());
          Condition.broadcast t.settled;
          Mutex.unlock t.lock;
          match v with Ok v -> v | Error e -> raise e
        end
    in
    obtain ()
end

let clear_caches () = List.iter (fun reset -> reset ()) (Atomic.get Memo.resets)

let programs = Memo.create ()

let edge_program q (b : Registry.bench) : Trips_edge.Block.program =
  Memo.find_or_compute programs (q, b.Registry.name) (fun () ->
      Preset.edge_program q b)

let exec_stats = Memo.create ()

let edge_stats q (b : Registry.bench) : Exec.stats =
  Memo.find_or_compute exec_stats (q, b.Registry.name) (fun () ->
      let prog = edge_program q b in
      let image = Image.build b.Registry.program.Ast.globals in
      let r = Exec.run prog image ~entry:"main" ~args:[] in
      let exp_v, _ = Registry.golden b in
      check (b.Registry.name ^ "/edge-" ^ Preset.name q) exp_v r.Exec.ret;
      r.Exec.stats)

let trips_runs = Memo.create ()

let trips q (b : Registry.bench) : Core.result =
  Memo.find_or_compute trips_runs (q, b.Registry.name) (fun () ->
      let prog = edge_program q b in
      let image = Image.build b.Registry.program.Ast.globals in
      let r = Core.run prog image ~entry:"main" ~args:[] in
      let exp_v, _ = Registry.golden b in
      check (b.Registry.name ^ "/trips-proto" ^ Preset.name q) exp_v r.Core.ret;
      r)

let risc_runs = Memo.create ()

let risc ?(unroll = 1) (b : Registry.bench) : Risc.Exec.stats =
  Memo.find_or_compute risc_runs (unroll, b.Registry.name) (fun () ->
      let prog = Risc.Codegen.compile ~unroll b.Registry.program in
      let image = Image.build b.Registry.program.Ast.globals in
      let r = Risc.Exec.run prog image ~entry:"main" ~args:[] in
      let exp_v, _ = Registry.golden b in
      check (b.Registry.name ^ "/risc") exp_v (Risc.Exec.ret_value r b.Registry.ret);
      r.Risc.Exec.stats)

let super_runs = Memo.create ()

let super (cfg : Ooo.config) ~icc (b : Registry.bench) : Ooo.result =
  Memo.find_or_compute super_runs (cfg.Ooo.name, icc, b.Registry.name)
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

let ideal_runs = Memo.create ()

let ideal (cfg : Ideal.config) q (b : Registry.bench) : Ideal.result =
  Memo.find_or_compute ideal_runs (cfg, q, b.Registry.name) (fun () ->
      let prog = edge_program q b in
      let image = Image.build b.Registry.program.Ast.globals in
      let r = Ideal.run ~config:cfg prog image ~entry:"main" ~args:[] in
      let exp_v, _ = Registry.golden b in
      check
        (Printf.sprintf "%s/ideal-w%d-d%d-l%d" b.Registry.name
           cfg.Ideal.window_insts cfg.Ideal.dispatch_cost cfg.Ideal.load_latency)
        exp_v r.Ideal.ret;
      r)
