(* Host speed, measured by a fixed calibration kernel.

   On a shared host the speed of the whole machine drifts: neighbours on
   the same cores and caches slow every program by 10 to 50% for seconds
   to minutes at a time, which no statistic taken inside one run removes.
   So timed work is preceded by this kernel, and its time is scaled by
   [nominal_s /. kernel time]: it reads as the time at the speed the
   kernel had when the benchmark was defined.

   The kernel is benchmark code, never code under test.  It does what the
   simulators and compiler spend their time on: dependent loads and
   stores, branches and integer arithmetic over a table that fits the L2
   cache, then over one that does not, with short-lived allocation.  The
   simulators slow more than the first phase under cache contention, the
   compiler about as much; the second phase covers the difference.  It
   keeps nothing it allocates, so its time does not depend on the heap
   the workload left behind. *)

(* Seconds the kernel took on the 2-core Xeon the bounds were set on. *)
let nominal_s = 0.0170

let small = Array.make (1 lsl 16) 0
let large = Array.make (1 lsl 19) 0

let phase table ~iters ~alloc =
  let mask = Array.length table - 1 in
  let x = ref 0x2545f491 and acc = ref 0 and live = ref (0, 0) in
  for _ = 1 to iters do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let k = (!x lxor !acc) land mask in
    let v = table.(k) in
    table.(k) <- v + 1;
    if alloc then live := (k, v + fst !live);
    if v land 1 = 0 then acc := !acc + (v lxor k) else acc := !acc - k
  done;
  !acc + fst !live

(* Seconds of one run of the kernel. *)
let sample () =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (phase small ~iters:700_000 ~alloc:false));
  ignore (Sys.opaque_identity (phase large ~iters:200_000 ~alloc:true));
  Unix.gettimeofday () -. t0

(* The first runs touch the tables' pages. *)
let () =
  for _ = 1 to 3 do
    ignore (sample ())
  done
