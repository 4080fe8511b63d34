(* The golden-table library: what it writes, which keys it checks, and
   how it reports a fixture that does not match the suite. *)

let two_rows ?(fixture = [ ("a", "x=1 y=0x1p+0"); ("b", "x=2 y=0x1p+1") ]) () =
  Golden.table ~name:"pairs" ~fixture ~key:fst
    ~fast:(fun (k, _) -> k = "a")
    ~row:(fun (_, v) -> Printf.sprintf "x=%d y=%h" v (float_of_int v))
    [ ("a", 1); ("b", 2) ]

let test_render () =
  let f =
    Golden.file "pairs_golden.ml" ~about:[ "Two rows"; "of pairs." ] [ two_rows () ]
  in
  Alcotest.(check string) "fixture source"
    "(* Two rows\n\
    \   of pairs.\n\
    \   Re-record: TRIPS_GOLDEN_RECORD=test dune exec test/test_pairs.exe *)\n\
     \n\
     let pairs = [\n\
    \  (\"a\", \"x=1 y=0x1p+0\");\n\
    \  (\"b\", \"x=2 y=0x1p+1\");\n\
     ]\n"
    (Golden.render ~exe:"test_pairs.exe" f)

(* Recording writes the [record] function's rows, not [row]'s. *)
let test_record_function () =
  let t =
    Golden.table ~name:"r" ~fixture:[] ~key:Fun.id ~fast:(fun _ -> true)
      ~row:(fun _ -> "from=row") ~record:(fun _ -> "from=record") [ "k" ]
  in
  Alcotest.(check string) "recorded row"
    "(* R\n   Re-record: TRIPS_GOLDEN_RECORD=test dune exec test/e *)\n\n\
     let r = [\n  (\"k\", \"from=record\");\n]\n"
    (Golden.render ~exe:"e" (Golden.file "r.ml" ~about:[ "R" ] [ t ]))

let names cases = List.map (fun (name, _, _) -> name) cases

let test_fast_subset () =
  Alcotest.(check (list string)) "not full" [ "a" ]
    (names (Golden.cases ~full:false (two_rows ())));
  Alcotest.(check (list string)) "full" [ "a"; "b"; "pairs key set" ]
    (names (Golden.cases ~full:true (two_rows ())))

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_rows_pass () =
  let t = two_rows () in
  Alcotest.(check (list (option string))) "rows" [ None; None ]
    (List.map (Golden.row_error t) [ "a"; "b" ]);
  Alcotest.(check (option string)) "key set" None (Golden.key_error t)

let test_key_set () =
  let t = two_rows ~fixture:[ ("a", "x=1 y=0x1p+0"); ("c", "x=3 y=0x1.8p+1") ] () in
  match Golden.key_error t with
  | None -> Alcotest.fail "key-set check passed"
  | Some msg ->
    Alcotest.(check bool) ("names b and c: " ^ msg) true
      (contains msg "no row for [b]" && contains msg "outside the suite: [c]")

let test_mismatch_message () =
  let t = two_rows ~fixture:[ ("a", "x=1 y=0x1p+0"); ("b", "x=7 y=0x1p+1") ] () in
  match Golden.row_error t "b" with
  | None -> Alcotest.fail "changed row passed"
  | Some msg ->
    Alcotest.(check bool) ("key, field and both values: " ^ msg) true
      (contains msg "pairs row \"b\": x differ" && contains msg "x=7 y=0x1p+1"
      && contains msg "x=2 y=0x1p+1")

let () =
  Alcotest.run "golden"
    [
      ( "writer",
        [
          Alcotest.test_case "two-row fixture byte for byte" `Quick test_render;
          Alcotest.test_case "records with the record function" `Quick
            test_record_function;
        ] );
      ( "check",
        [
          Alcotest.test_case "fast subset unless full" `Quick test_fast_subset;
          Alcotest.test_case "matching rows pass" `Quick test_rows_pass;
          Alcotest.test_case "missing and extra keys named" `Quick test_key_set;
          Alcotest.test_case "changed row names key and values" `Quick
            test_mismatch_message;
        ] );
    ]
