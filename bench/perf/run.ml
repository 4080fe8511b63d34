(* One benchmark run: a fixed number of passes, each with its own
   set-up, the operations' outcomes and times, and the per-layer sums
   the traced passes accumulate.

   A pass measures the host's speed ([Calib]), probes process start-up,
   sets the workload up afresh, then sweeps its fixed input set once, in
   an order drawn from the seed.  The number of passes depends on
   [--seconds] alone, never on how fast the code runs, so a parent and a
   child commit are measured by the same estimators over the same number
   of samples.  Every time an end-to-end metric uses is scaled to the
   kernel's nominal speed. *)

let now = Unix.gettimeofday

type op = {
  key : string;
  dt : float;  (** wall seconds *)
  scale : float;  (** [Calib.nominal_s /.] the kernel time before it *)
}

type pass = {
  setup : float;  (** seconds of start-up probe and set-up, scaled *)
  wall : float;  (** seconds of the timed phase, without calibration *)
  cpu : float;  (** process CPU seconds (every thread) over that phase *)
  ops : op list;
  own : float;
      (** seconds of the workload's own operations, without the extra
          standalone layer calls a traced pass adds *)
  traced : bool;
}

type t = {
  trace : bool;
  count : int;  (** passes to run *)
  rng : Trips_util.Rng.t;
  mutable scale : float;  (** of the latest calibration *)
  mutable calib_wall : float;  (** seconds spent calibrating *)
  mutable calib_cpu : float;
  mutable setup_s : float;  (** set-up of the pass in progress *)
  mutable cur : op list;  (** operations of the pass in progress *)
  mutable passes : pass list;
  mutable attempted : int;
  mutable failed : int;
  sums : (string, float) Hashtbl.t;
}

let create ~trace ~seed ~passes =
  {
    trace;
    count = passes;
    rng = Trips_util.Rng.create (Int64.of_int seed);
    scale = 1.;
    calib_wall = 0.;
    calib_cpu = 0.;
    setup_s = 0.;
    cur = [];
    passes = [];
    attempted = 0;
    failed = 0;
    sums = Hashtbl.create 64;
  }

(* ---- statistics ---------------------------------------------------- *)

(* Linear interpolation between closest ranks. *)
let percentile l q =
  let a = Array.of_list (List.sort compare l) in
  let n = Array.length a in
  if n = 0 then 0.
  else
    let x = q /. 100. *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median l = percentile l 50.
let ratio a b = if b = 0. then 0. else a /. b
let sum l = List.fold_left ( +. ) 0. l

(* ---- operations ---------------------------------------------------- *)

(* Count one operation; a failed one is named on stderr. *)
let op t ~ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    Printf.eprintf "perf: FAILED %s\n%!" what
  end

(* Run [f] as one operation returning its own seconds: an exception
   counts it failed, never ends the run. *)
let guard t what f =
  match f () with
  | own -> own
  | exception e ->
    op t ~ok:false (what ^ ": " ^ Printexc.to_string e);
    0.

(* Measure the host's speed now (the median of [samples] kernel runs);
   the next times are scaled by it. *)
let calibrate ?(samples = 1) t =
  let w0 = now () and c0 = Sys.time () in
  t.scale <- Calib.nominal_s /. median (List.init samples (fun _ -> Calib.sample ()));
  t.calib_wall <- t.calib_wall +. (now () -. w0);
  t.calib_cpu <- t.calib_cpu +. (Sys.time () -. c0)

(* The wall time of one operation of the current pass. *)
let record t key dt = t.cur <- { key; dt; scale = t.scale } :: t.cur
let get t k = Option.value ~default:0. (Hashtbl.find_opt t.sums k)
let add t k v = Hashtbl.replace t.sums k (get t k +. v)
let addi t k n = add t k (float_of_int n)

let shuffled t a =
  let a = Array.copy a in
  Trips_util.Rng.shuffle t.rng a;
  a

(* ---- passes -------------------------------------------------------- *)

(* Seconds to start the benchmark program and exit at once: process
   start-up and module initialisation, which every run pays. *)
let startup () =
  let exe = Sys.executable_name in
  let t0 = now () in
  let pid = Unix.create_process exe [| exe; "--startup" |] Unix.stdin Unix.stdout Unix.stderr in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> now () -. t0
  | _ -> failwith "the start-up probe failed"

(* The current pass's set-up: a start-up probe, then [f]. *)
let setup t f =
  calibrate ~samples:5 t;
  let s = startup () in
  let r, dt = Span.measure "setup" f in
  t.setup_s <- (s +. dt) *. t.scale;
  r

(* Time [body], one sweep of the workload; it returns its own seconds. *)
let timed_pass t ~traced body =
  t.cur <- [];
  let w0 = now () and c0 = Sys.time () in
  let k0 = t.calib_wall and kc0 = t.calib_cpu in
  let own = body () in
  (* without the calibrations [body] made *)
  let wall = now () -. w0 -. (t.calib_wall -. k0)
  and cpu = Sys.time () -. c0 -. (t.calib_cpu -. kc0) in
  { setup = t.setup_s; wall; cpu; ops = t.cur; own; traced }

(* [count] passes.  A traced run alternates untraced and traced passes,
   so the tracing overhead is measured on identical work within one
   process. *)
let passes t (f : traced:bool -> pass) =
  for k = 0 to t.count - 1 do
    let traced = t.trace && k mod 2 = 1 in
    let p =
      Span.with_ ~args:[ ("traced", Trips_util.Json.Bool traced) ]
        (Printf.sprintf "pass %d" k) (fun () -> f ~traced)
    in
    t.passes <- p :: t.passes;
    Printf.eprintf
      "perf: pass %d%s: set-up %.3f s, %d ops, %.3f s wall, %.3f s cpu, speed %.3f\n%!"
      k
      (if traced then " (traced)" else "")
      p.setup (List.length p.ops) p.wall p.cpu
      (ratio (sum (List.map (fun (o : op) -> o.scale) p.ops)) (float_of_int (List.length p.ops)))
  done

let untraced t = List.filter (fun p -> not p.traced) t.passes
let traced_passes t = List.length (List.filter (fun p -> p.traced) t.passes)

(* Per-pass mean of a traced-pass sum. *)
let per_pass t k = get t k /. float_of_int (max 1 (traced_passes t))

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> 0.
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %f kB" (fun kb -> kb /. 1024.)
        | Some _ -> scan ()
      in
      scan ())

(* A pass's scale: its operations' scales, weighted by their times. *)
let pass_scale p =
  ratio
    (sum (List.map (fun o -> o.dt *. o.scale) p.ops))
    (sum (List.map (fun o -> o.dt) p.ops))

(* Scaled seconds per operation of the untraced passes.  With
   [~per_op:true] (operations run one at a time) it is the mean over
   operation keys of each key's fastest scaled time: every operation got
   its own calibration, and a disturbance spoils only the operations it
   overlapped.  Otherwise (concurrent operations) it is the median pass's
   scaled wall time per operation. *)
let seconds_per_op t ~per_op =
  let ps = untraced t in
  if per_op then begin
    let best = Hashtbl.create 64 in
    List.iter
      (fun p ->
        List.iter
          (fun o ->
            let v = o.dt *. o.scale in
            match Hashtbl.find_opt best o.key with
            | Some b when b <= v -> ()
            | _ -> Hashtbl.replace best o.key v)
          p.ops)
      ps;
    ratio (Hashtbl.fold (fun _ v a -> a +. v) best 0.) (float_of_int (Hashtbl.length best))
  end
  else
    median
      (List.map
         (fun p -> ratio (p.wall *. pass_scale p) (float_of_int (List.length p.ops)))
         ps)

let end_to_end t ~per_op =
  let ps = untraced t in
  [
    ("setup_s", median (List.map (fun p -> p.setup) ps));
    ("peak_rss_mb", peak_rss_mb ());
    ("ops_per_s", 1. /. seconds_per_op t ~per_op);
    ( "cpu_ms_per_op",
      median
        (List.map
           (fun p -> 1000. *. ratio (p.cpu *. pass_scale p) (float_of_int (List.length p.ops)))
           ps) );
  ]

(* Median traced against median untraced pass, on the workload's own
   operations, scaled. *)
let trace_overhead_pct t =
  let own traced =
    median
      (List.filter_map
         (fun p -> if p.traced = traced then Some (p.own *. pass_scale p) else None)
         t.passes)
  in
  100. *. (ratio (own true) (own false) -. 1.)

(* The host's median speed over the run, against the kernel's nominal
   speed (1 = as fast as when the benchmark was defined). *)
let speed t = median (List.map pass_scale t.passes)
