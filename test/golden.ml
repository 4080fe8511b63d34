(* Golden tables: committed rows of what a computation produced, checked
   against what it produces now.

   A table pairs a fixture's [(key, value)] rows with the suite's keys,
   each with a function that computes its value.  The value is one line
   of named fields ("cycles=60701 blocks=3138 ..."; floats printed [%h],
   so a change in any bit shows).  The key is the Alcotest case name.

   Two environment variables drive every table:

   - TRIPS_GOLDEN_FULL: check every key (default: the fast subset) and
     check that the fixture holds exactly the suite's keys;
   - TRIPS_GOLDEN_RECORD=DIR: instead of testing, rewrite every fixture
     the executable owns into DIR and exit.  Only for an intended change
     of what a table pins. *)

type row = {
  key : string;
  fast : bool;  (* in the subset a plain run checks *)
  compute : unit -> string;  (* the value a check compares *)
  record : unit -> string;  (* the value the writer records *)
}

type t = { name : string; fixture : (string * string) list; rows : row list }

let table ~name ~fixture ~key ~fast ~row ?(record = row) keys =
  let row k =
    { key = key k; fast = fast k; compute = (fun () -> row k);
      record = (fun () -> record k) }
  in
  { name; fixture; rows = List.map row keys }

let full () = Sys.getenv_opt "TRIPS_GOLDEN_FULL" <> None

(* Suite keys with no fixture row, and fixture keys outside the suite. *)
let key_error t =
  let fixture = List.map fst t.fixture in
  let suite = List.map (fun r -> r.key) t.rows in
  match
    ( List.filter (fun k -> not (List.mem k fixture)) suite,
      List.filter (fun k -> not (List.mem k suite)) fixture )
  with
  | [], [] -> None
  | missing, extra ->
    Some
      (Printf.sprintf "%s fixture: no row for [%s]; rows outside the suite: [%s]"
         t.name (String.concat "; " missing) (String.concat "; " extra))

(* The names of the fields that are not the same in both rows. *)
let differing expected got =
  let e = String.split_on_char ' ' expected and g = String.split_on_char ' ' got in
  let name f = List.hd (String.split_on_char '=' f) in
  List.sort_uniq compare
    (List.map name
       (List.filter (fun f -> not (List.mem f g)) e
       @ List.filter (fun f -> not (List.mem f e)) g))

(* The failure of [key]'s row, if any: the key, the fields that differ
   and both whole rows. *)
let row_error t key =
  let r = List.find (fun r -> r.key = key) t.rows in
  match List.assoc_opt key t.fixture with
  | None -> Some (Printf.sprintf "%s fixture has no row %S" t.name key)
  | Some expected ->
    let got = r.compute () in
    if got = expected then None
    else
      Some
        (Printf.sprintf "%s row %S: %s differ\n  fixture:  %s\n  computed: %s"
           t.name key
           (String.concat ", " (differing expected got))
           expected got)

let case name error =
  Alcotest.test_case name `Quick (fun () -> Option.iter Alcotest.fail (error ()))

let cases ?(full = full ()) t =
  List.filter_map
    (fun r ->
      if full || r.fast then Some (case r.key (fun () -> row_error t r.key))
      else None)
    t.rows
  @ if full then [ case (t.name ^ " key set") (fun () -> key_error t) ] else []

type file = { file : string; about : string list; tables : t list }

let file file ~about tables = { file; about; tables }

(* The fixture source: a comment of [about] lines naming the one record
   command, then one list per table. *)
let render ~exe f =
  let buf = Buffer.create 65536 in
  Printf.bprintf buf
    "(* %s\n   Re-record: TRIPS_GOLDEN_RECORD=test dune exec test/%s *)\n"
    (String.concat "\n   " f.about) exe;
  List.iter
    (fun t ->
      Printf.bprintf buf "\nlet %s = [\n" t.name;
      List.iter
        (fun r -> Printf.bprintf buf "  (%S, %S);\n" r.key (r.record ()))
        t.rows;
      Buffer.add_string buf "]\n")
    f.tables;
  Buffer.contents buf

let run name ~fixtures suites =
  match Sys.getenv_opt "TRIPS_GOLDEN_RECORD" with
  | Some dir ->
    let exe = Filename.basename Sys.executable_name in
    List.iter
      (fun f ->
        let path = Filename.concat dir f.file in
        let source = render ~exe f in
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc source);
        Printf.eprintf "recorded %s\n%!" path)
      fixtures;
    exit 0
  | None -> Alcotest.run name suites
