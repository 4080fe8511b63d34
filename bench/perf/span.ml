(* Benchmark-side trace spans.

   Spans are recorded around calls into each layer's public functions,
   kept in memory, and written once at the end of a run as Chrome
   trace-event JSON ("X" complete events, one per span), which any trace
   viewer opens.  Every span comes from the benchmark's one thread, and
   nesting is by time containment, so a span recorded after the fact (the per-program aggregate of every
   [Core.time_block] call) nests under the span whose interval holds it.

   Recording is off unless [enable] was called; a span then costs only
   the two clock reads the benchmark takes anyway, which is what keeps
   untraced runs free of tracing overhead. *)

module Json = Trips_util.Json

type t = {
  name : string;
  ts : float;  (** start, seconds since [origin] *)
  dur : float;  (** seconds *)
  args : (string * Json.t) list;
}

let origin = Unix.gettimeofday ()
let on = ref false
let enable () = on := true
let spans : t list ref = ref []

let add ?(args = []) name ~start ~dur =
  if !on then spans := { name; ts = start -. origin; dur; args } :: !spans

(* Time [f] as span [name]; the result and the span's wall duration. *)
let measure ?args name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let t1 = Unix.gettimeofday () in
  add ?args name ~start:t0 ~dur:(t1 -. t0);
  (r, t1 -. t0)

let with_ ?args name f = fst (measure ?args name f)

(* Per span name: calls, total seconds, and self seconds (total minus
   the part of its interval its direct children cover).  Spans are
   visited parent first: by start, and the longer first on a tie. *)
let self_times () =
  let acc = Hashtbl.create 32 in
  let bump name ~total ~self =
    let c, t, s = Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt acc name) in
    Hashtbl.replace acc name (c + 1, t +. total, s +. self)
  in
  (* open spans, innermost first, each with its children's seconds *)
  let stack = ref [] in
  let close () =
    match !stack with
    | (s, kids) :: rest ->
      bump s.name ~total:s.dur ~self:(s.dur -. kids);
      stack := (match rest with (p, pk) :: up -> (p, pk +. s.dur) :: up | [] -> [])
    | [] -> ()
  in
  let rec pop_ended ts =
    match !stack with
    | (p, _) :: _ when ts >= p.ts +. p.dur -. 1e-9 ->
      close ();
      pop_ended ts
    | _ -> ()
  in
  List.iter
    (fun s ->
      pop_ended s.ts;
      stack := (s, 0.) :: !stack)
    (List.sort
       (fun a b -> if a.ts = b.ts then compare b.dur a.dur else compare a.ts b.ts)
       !spans);
  while !stack <> [] do
    close ()
  done;
  Hashtbl.fold (fun name (c, t, s) l -> (name, c, t, s) :: l) acc []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a)

let print_table oc =
  let rows = self_times () in
  let root =
    List.fold_left (fun m (_, _, t, _) -> Float.max m t) 0. rows
  in
  Printf.fprintf oc "%-44s %8s %11s %11s %7s\n" "span" "calls" "total_s"
    "self_s" "self%";
  List.iter
    (fun (name, c, t, s) ->
      Printf.fprintf oc "%-44s %8d %11.4f %11.4f %6.1f%%\n" name c t s
        (if root > 0. then 100. *. s /. root else 0.))
    rows

let write_chrome file =
  let ev s =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("ph", Json.Str "X");
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ("ts", Json.Float (s.ts *. 1e6));
        ("dur", Json.Float (s.dur *. 1e6));
        ("args", Json.Obj s.args);
      ]
  in
  let oc = open_out file in
  output_string oc
    (Json.to_string
       (Json.Obj
          [
            ("traceEvents", Json.List (List.rev_map ev !spans));
            ("displayTimeUnit", Json.Str "ms");
          ]));
  close_out oc
