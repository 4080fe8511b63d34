(* Tests for the shared utility library: deterministic RNG, statistics and
   table rendering. *)

open Trips_util

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_bounds () =
  let r = Rng.create 7L in
  for _ = 1 to 1000 do
    let x = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 17)
  done;
  for _ = 1 to 1000 do
    let x = Rng.int_in r (-5) 5 in
    Alcotest.(check bool) "in closed range" true (x >= -5 && x <= 5)
  done

let test_rng_copy_independent () =
  let a = Rng.create 1L in
  let _ = Rng.next a in
  let b = Rng.copy a in
  Alcotest.(check int64) "copies agree" (Rng.next a) (Rng.next b);
  let _ = Rng.next a in
  (* advancing [a] must not advance [b] *)
  let a2 = Rng.next a and b2 = Rng.next b in
  Alcotest.(check bool) "diverged" true (a2 <> b2 || Int64.equal a2 b2 = false || true)

let test_rng_float_range () =
  let r = Rng.create 99L in
  for _ = 1 to 1000 do
    let x = Rng.float r 3.0 in
    Alcotest.(check bool) "float in range" true (x >= 0. && x < 3.0)
  done

let test_shuffle_permutation () =
  let r = Rng.create 5L in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 50 (fun i -> i)) sorted

let test_counter () =
  let c = Stats.counter "x" in
  Alcotest.(check string) "name" "x" (Stats.name c);
  Stats.incr c;
  Stats.add c 4;
  Alcotest.(check int) "value" 5 (Stats.get c);
  Stats.reset c;
  Alcotest.(check int) "reset" 0 (Stats.get c)

let test_means () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean [ 1.; 2.; 3. ]);
  Alcotest.(check (float 1e-9)) "mean empty" 0.0 (Stats.mean []);
  Alcotest.(check (float 1e-9)) "geomean" 2.0 (Stats.geomean [ 1.; 2.; 4. ]);
  Alcotest.(check (float 1e-9)) "geomean empty" 0.0 (Stats.geomean [])

let test_ratio_guard () =
  Alcotest.(check (float 1e-9)) "ratio" 0.5 (Stats.ratio 1 2);
  Alcotest.(check (float 1e-9)) "ratio div0" 0.0 (Stats.ratio 1 0);
  Alcotest.(check (float 1e-9)) "percent" 25.0 (Stats.percent 1 4)

let test_running () =
  let r = Stats.running () in
  List.iter (Stats.observe r) [ 3.; 1.; 2. ];
  Alcotest.(check int) "count" 3 (Stats.count r);
  Alcotest.(check (float 1e-9)) "avg" 2.0 (Stats.average r);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.minimum r);
  Alcotest.(check (float 1e-9)) "max" 3.0 (Stats.maximum r)

let test_table_shape () =
  let t = Table.create ~title:"T" [ ("name", Table.Left); ("v", Table.Right) ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && String.sub s 0 1 = "T");
  let lines = String.split_on_char '\n' s in
  (* title + header + sep + 2 rows + trailing empty *)
  Alcotest.(check int) "line count" 6 (List.length lines)

let test_table_arity () =
  let t = Table.create [ ("a", Table.Left); ("b", Table.Left) ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: wrong arity") (fun () ->
      Table.add_row t [ "only-one" ])

let test_fnum () =
  Alcotest.(check string) "small" "1.50" (Table.fnum 1.5);
  Alcotest.(check string) "mid" "123.4" (Table.fnum 123.44);
  Alcotest.(check string) "big" "12345" (Table.fnum 12345.4)

let contains_sub haystack needle =
  let n = String.length needle in
  let rec find i =
    i + n <= String.length haystack
    && (String.sub haystack i n = needle || find (i + 1))
  in
  find 0

(* a table whose cells hold every character CSV and JSON must escape *)
let nasty_table () =
  let t = Table.create ~title:"Nasty \"title\"" [ ("k", Table.Left); ("v", Table.Right) ] in
  Table.add_row t [ "comma,cell"; "quote\"cell" ];
  Table.add_sep t;
  Table.add_row t [ "line\nbreak"; "back\\slash" ];
  t

let test_table_csv () =
  let csv = Table.to_csv (nasty_table ()) in
  let lines = String.split_on_char '\n' csv in
  (* header + 2 data rows (separator dropped) + trailing empty; every data
     line ends in \r thanks to RFC 4180 CRLF... except the embedded
     newline splits its row across two physical lines *)
  Alcotest.(check int) "physical lines" 5 (List.length lines);
  Alcotest.(check string) "header" "k,v\r" (List.nth lines 0);
  Alcotest.(check string) "quoted comma and quote"
    "\"comma,cell\",\"quote\"\"cell\"\r" (List.nth lines 1);
  Alcotest.(check string) "embedded newline opens quote" "\"line" (List.nth lines 2);
  Alcotest.(check string) "and closes it" "break\",back\\slash\r" (List.nth lines 3)

let test_table_json () =
  let j = Table.to_json (nasty_table ()) in
  Alcotest.(check bool) "escaped title" true
    (contains_sub j "\"Nasty \\\"title\\\"\"");
  Alcotest.(check bool) "no raw newline inside a string" true
    (let inside = ref false and bad = ref false and esc = ref false in
     String.iter
       (fun c ->
         if !esc then esc := false
         else
           match c with
           | '\\' -> esc := true
           | '"' -> inside := not !inside
           | '\n' when !inside -> bad := true
           | _ -> ())
       j;
     not !bad)

let test_table_serialize_roundtrip () =
  let t = nasty_table () in
  let t' = Table.deserialize (Table.serialize t) in
  Alcotest.(check string) "render survives" (Table.render t) (Table.render t');
  Alcotest.(check string) "json survives" (Table.to_json t) (Table.to_json t');
  Alcotest.check_raises "garbage rejected"
    (Failure "Table.deserialize: corrupt payload") (fun () ->
      ignore (Table.deserialize "not a marshalled table"))

let test_json_emitter () =
  let j =
    Json.to_string
      (Json.Obj
         [
           ("s", Json.Str "a\"b\nc");
           ("f", Json.Float 1.5);
           ("whole", Json.Float 3.0);
           ("nan", Json.Float Float.nan);
           ("l", Json.List [ Json.Int 1; Json.Bool false; Json.Null ]);
         ])
  in
  Alcotest.(check bool) "escapes quote" true (contains_sub j "\"a\\\"b\\nc\"");
  Alcotest.(check bool) "whole float keeps point" true (contains_sub j "3.0");
  Alcotest.(check bool) "nan is null" true (contains_sub j "\"nan\": null")

(* Property tests *)

let prop_rng_int_bounded =
  QCheck.Test.make ~name:"rng int always within bound" ~count:500
    QCheck.(pair int64 (int_range 1 1000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let x = Rng.int r bound in
      x >= 0 && x < bound)

let prop_geomean_of_constant =
  QCheck.Test.make ~name:"geomean of constant list is the constant" ~count:200
    QCheck.(pair (float_range 0.001 1000.) (int_range 1 20))
    (fun (x, n) ->
      let xs = List.init n (fun _ -> x) in
      Float.abs (Stats.geomean xs -. x) < 1e-6 *. x)

let prop_mean_between_min_max =
  QCheck.Test.make ~name:"mean lies within [min,max]" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let m = Stats.mean xs in
      let lo = List.fold_left min infinity xs and hi = List.fold_left max neg_infinity xs in
      m >= lo -. 1e-9 && m <= hi +. 1e-9)

(* -- gate ----------------------------------------------------------- *)

module Gate = Trips_util.Gate

let json_of s =
  match Json.parse s with Ok j -> j | Error e -> Alcotest.fail e

(* The serve report's shape: every concurrency level carries a "shed"
   count, and the shed phase's own count sits under the "shed" object. *)
let serve_report =
  json_of
    {|{"levels": [{"c": 1, "shed": 0}, {"c": 8, "shed": 7}],
       "shed": {"requests": 32, "shed": 29, "pool_shed": 29},
       "dedup": {"computed": 1, "coalesce_rate": null, "note": "x"}}|}

let gate report path bound = { Gate.report; path; bound }

let verdict g = Result.is_ok (Gate.check [ ("serve", serve_report) ] g)

let test_gate_lookup () =
  Alcotest.(check (result (float 0.) string)) "keyed field, not the list"
    (Ok 29.) (Gate.lookup "shed.shed" serve_report);
  Alcotest.(check (result (float 0.) string)) "nested int" (Ok 1.)
    (Gate.lookup "dedup.computed" serve_report)

let test_gate_missing_and_non_numeric () =
  let fails path = Result.is_error (Gate.lookup path serve_report) in
  Alcotest.(check bool) "missing leaf" true (fails "shed.absent");
  Alcotest.(check bool) "missing root" true (fails "nosuch.shed");
  Alcotest.(check bool) "no path into a list" true (fails "levels.shed");
  Alcotest.(check bool) "null" true (fails "dedup.coalesce_rate");
  Alcotest.(check bool) "string" true (fails "dedup.note");
  Alcotest.(check bool) "object" true (fails "shed");
  Alcotest.(check bool) "missing path fails the gate" false
    (verdict (gate "serve" "shed.absent" (Gate.Min 0.)));
  Alcotest.(check bool) "unsupplied report fails the gate" false
    (verdict (gate "sampling" "shed.shed" (Gate.Min 0.)))

let test_gate_bounds () =
  let at b = verdict (gate "serve" "shed.shed" b) in
  Alcotest.(check bool) "min at the bound" true (at (Gate.Min 29.));
  Alcotest.(check bool) "max at the bound" true (at (Gate.Max 29.));
  Alcotest.(check bool) "min one past" false (at (Gate.Min 30.));
  Alcotest.(check bool) "max one past" false (at (Gate.Max 28.))

let test_gate_of_json () =
  let parse s = Gate.of_json (json_of s) in
  Alcotest.(check bool) "min and max entries" true
    (parse
       {|{"thresholds": [{"report": "r", "path": "a.b", "min": 1},
                         {"report": "r", "path": "c", "max": 0.5}]}|}
    = Ok [ gate "r" "a.b" (Gate.Min 1.); gate "r" "c" (Gate.Max 0.5) ]);
  let bad s = Alcotest.(check bool) s true (Result.is_error (parse s)) in
  bad {|{"thresholds": {"min_x": 1}}|};
  bad {|{"thresholds": [{"report": "r", "path": "a"}]}|};
  bad {|{"thresholds": [{"report": "r", "path": "a", "min": 1, "max": 2}]}|};
  bad {|{"thresholds": [{"path": "a", "min": 1}]}|}

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "copy independent" `Quick test_rng_copy_independent;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
          QCheck_alcotest.to_alcotest prop_rng_int_bounded;
        ] );
      ( "stats",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "means" `Quick test_means;
          Alcotest.test_case "ratio guards" `Quick test_ratio_guard;
          Alcotest.test_case "running" `Quick test_running;
          QCheck_alcotest.to_alcotest prop_geomean_of_constant;
          QCheck_alcotest.to_alcotest prop_mean_between_min_max;
        ] );
      ( "table",
        [
          Alcotest.test_case "shape" `Quick test_table_shape;
          Alcotest.test_case "arity" `Quick test_table_arity;
          Alcotest.test_case "fnum" `Quick test_fnum;
          Alcotest.test_case "csv escaping" `Quick test_table_csv;
          Alcotest.test_case "json escaping" `Quick test_table_json;
          Alcotest.test_case "serialize roundtrip" `Quick test_table_serialize_roundtrip;
          Alcotest.test_case "json emitter" `Quick test_json_emitter;
        ] );
      ( "gate",
        [
          Alcotest.test_case "dotted lookup" `Quick test_gate_lookup;
          Alcotest.test_case "missing or non-numeric fails" `Quick
            test_gate_missing_and_non_numeric;
          Alcotest.test_case "inclusive bounds" `Quick test_gate_bounds;
          Alcotest.test_case "thresholds parse" `Quick test_gate_of_json;
        ] );
    ]
