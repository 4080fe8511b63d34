(* Start-up budget: what initialising every library [trips_run] links
   costs a process before it does any work.  The executable links them
   with -linkall, so every module's top level has run before this one's;
   the counters read first thing here are module initialisation alone.

   Both counts are deterministic for a given build (no work has started,
   nothing depends on the clock), so the bounds are exact budgets with
   headroom, not noise bands.  They hold because the workloads' input
   arrays are packed strings ([Trips_tir.Ast.Init]) and the content
   fingerprint is computed on first use; a module that builds boxed data
   or digests the workload set while initialising breaks them. *)

let at_init = Gc.quick_stat ()

(* More than twice the measured values (83k words promoted, 0.55M words
   of major heap, OCaml 5.1 at its default minor heap size). *)
let max_promoted_words = 200_000.
let max_heap_words = 1_200_000

let test_promoted () =
  let w = at_init.Gc.promoted_words in
  if w > max_promoted_words then
    Alcotest.failf "module initialisation promoted %.0f words (budget %.0f)" w
      max_promoted_words

let test_heap () =
  let w = at_init.Gc.heap_words in
  if w > max_heap_words then
    Alcotest.failf "module initialisation grew the major heap to %d words (budget %d)" w
      max_heap_words

let () =
  Printf.printf "module initialisation: %.0f words promoted, %d words of major heap\n%!"
    at_init.Gc.promoted_words at_init.Gc.heap_words;
  Alcotest.run "startup"
    [
      ( "budget",
        [
          Alcotest.test_case "words promoted by module initialisation" `Quick test_promoted;
          Alcotest.test_case "major heap after module initialisation" `Quick test_heap;
        ] );
    ]
