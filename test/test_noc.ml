(* Operand-network unit tests: routing geometry, dimension order, per-link
   single-occupancy contention, state reset, and the floor contract of the
   reservation rows against the int table they replaced.  [Opn.send] traverses the
   path of [Opn.route] in place, so these tests pin both the declarative
   path and the allocation-free walk against each other. *)

module Opn = Trips_noc.Opn

let positions =
  (* every mesh coordinate of the 5x5 OPN *)
  List.concat_map (fun r -> List.init 5 (fun c -> (r, c))) (List.init 5 Fun.id)

(* Route length equals the Manhattan distance, for every src/dst pair. *)
let test_route_length () =
  List.iter
    (fun src ->
      List.iter
        (fun dst ->
          let h = Opn.hops ~src ~dst in
          Alcotest.(check int)
            (Printf.sprintf "hops %s->%s"
               (fst src |> string_of_int)
               (fst dst |> string_of_int))
            h
            (List.length (Opn.route src dst)))
        positions)
    positions

(* Dimension order: the Y (row) hops all come before the X (column) hops,
   each step moves one hop toward the destination, and the claimed links
   start at the nodes actually visited. *)
let test_route_dimension_order () =
  List.iter
    (fun ((r1, c1) as src) ->
      List.iter
        (fun ((r2, c2) as dst) ->
          let steps = Opn.route src dst in
          let r = ref r1 and c = ref c1 and in_x = ref false in
          List.iter
            (fun (n, dir) ->
              Alcotest.(check int) "link starts at current node" (Opn.node !r !c) n;
              (match dir with
              | 0 | 1 ->
                Alcotest.(check bool) "row hops precede column hops" false !in_x;
                r := if dir = 1 then !r + 1 else !r - 1
              | 2 | 3 ->
                in_x := true;
                c := if dir = 2 then !c + 1 else !c - 1
              | _ -> Alcotest.fail "invalid direction");
              Alcotest.(check bool) "stays on the mesh" true
                (!r >= 0 && !r < 5 && !c >= 0 && !c < 5))
            steps;
          Alcotest.(check (pair int int)) "path ends at dst" (r2, c2) (!r, !c))
        positions)
    positions

(* Uncontended latency: one cycle per hop. *)
let test_uncontended_latency () =
  let t = Opn.create () in
  let arrival = Opn.send t ~src:(1, 1) ~dst:(3, 4) Opn.Et_et ~now:10 in
  Alcotest.(check int) "1 cycle per hop" (10 + Opn.hops ~src:(1, 1) ~dst:(3, 4)) arrival;
  let local = Opn.send t ~src:(2, 2) ~dst:(2, 2) Opn.Et_et ~now:7 in
  Alcotest.(check int) "local bypass is free" 7 local

(* Each link carries one operand per cycle: two messages entering the same
   link on the same cycle serialize; the contention counter records the
   stall. *)
let test_link_single_occupancy () =
  let t = Opn.create () in
  let a = Opn.send t ~src:(2, 1) ~dst:(2, 2) Opn.Et_et ~now:5 in
  Alcotest.(check int) "first message unimpeded" 6 a;
  let b = Opn.send t ~src:(2, 1) ~dst:(2, 2) Opn.Et_et ~now:5 in
  Alcotest.(check int) "second message waits one cycle" 7 b;
  let c = Opn.send t ~src:(2, 1) ~dst:(2, 2) Opn.Et_et ~now:5 in
  Alcotest.(check int) "third message waits two cycles" 8 c;
  Alcotest.(check int) "contention cycles recorded" 3
    (Opn.profile t).Opn.contention_cycles;
  (* a different link on the same cycle is independent *)
  let d = Opn.send t ~src:(2, 3) ~dst:(2, 4) Opn.Et_et ~now:5 in
  Alcotest.(check int) "other links unaffected" 6 d

(* Messages claiming the same link at different cycles do not contend,
   including out-of-order claim times (the simulator walks dataflow order,
   not time order). *)
let test_link_disjoint_times () =
  let t = Opn.create () in
  let a = Opn.send t ~src:(0, 0) ~dst:(0, 1) Opn.Et_et ~now:20 in
  let b = Opn.send t ~src:(0, 0) ~dst:(0, 1) Opn.Et_et ~now:3 in
  Alcotest.(check int) "later claim keeps its slot" 21 a;
  Alcotest.(check int) "earlier claim unaffected" 4 b;
  Alcotest.(check int) "no contention" 0 (Opn.profile t).Opn.contention_cycles

(* A multi-hop message occupies consecutive links on consecutive cycles;
   a second message chasing it one cycle later never catches up. *)
let test_pipelined_hops () =
  let t = Opn.create () in
  let a = Opn.send t ~src:(1, 0) ~dst:(1, 3) Opn.Et_et ~now:0 in
  let b = Opn.send t ~src:(1, 0) ~dst:(1, 3) Opn.Et_et ~now:1 in
  Alcotest.(check int) "head message" 3 a;
  Alcotest.(check int) "chaser stays one behind" 4 b;
  Alcotest.(check int) "pipelining causes no contention" 0
    (Opn.profile t).Opn.contention_cycles

(* [reset] restores a fresh network: occupancy and the whole profile. *)
let test_reset () =
  let t = Opn.create () in
  ignore (Opn.send t ~src:(0, 0) ~dst:(4, 4) Opn.Et_dt ~now:0);
  ignore (Opn.send t ~src:(0, 0) ~dst:(4, 4) Opn.Et_dt ~now:0);
  let p = Opn.profile t in
  Alcotest.(check bool) "profile non-empty before reset" true
    (p.Opn.total_packets > 0 && p.Opn.total_hops > 0
    && p.Opn.contention_cycles > 0);
  Opn.reset t;
  Alcotest.(check int) "packets cleared" 0 p.Opn.total_packets;
  Alcotest.(check int) "hops cleared" 0 p.Opn.total_hops;
  Alcotest.(check int) "contention cleared" 0 p.Opn.contention_cycles;
  Array.iter
    (fun row ->
      Array.iter (fun v -> Alcotest.(check int) "histogram cleared" 0 v) row)
    p.Opn.packets;
  (* links are free again: the same double-send no longer sees the old
     occupancy *)
  let a = Opn.send t ~src:(0, 0) ~dst:(0, 1) Opn.Gt_any ~now:0 in
  Alcotest.(check int) "occupancy cleared" 1 a

(* The int-table occupancy model the bit rows replaced, kept verbatim as
   the oracle of the equivalence property below: one claiming cycle per
   link and per slot of a 4096-cycle circular table, and no floor. *)
module Table_opn = struct
  let class_index = Opn.class_index

  type profile = Opn.profile = {
    packets : int array array;
    mutable contention_cycles : int;
    mutable total_packets : int;
    mutable total_hops : int;
  }

  let window = 4096

  type t = {
    occupancy : int array;       (* (slot * nlinks + link) -> claiming cycle *)
    prof : profile;
  }

  let size = 5
  let node r c = (r * size) + c
  let link_id n dir = (n * 4) + dir
  let nlinks = size * size * 4

  let create () =
    {
      occupancy = Array.make (size * size * 4 * window) (-1);
      prof =
        {
          packets = Array.make_matrix 8 6 0;
          contention_cycles = 0;
          total_packets = 0;
          total_hops = 0;
        };
    }

  (* Claim the first free cycle at or after [time] on link [id]; returns the
     cycle after traversing the hop. *)
  let claim t id time =
    let p = t.prof in
    let c = ref time in
    (* window is a power of two: slot index is a mask, not a division *)
    while t.occupancy.(((!c land (window - 1)) * nlinks) + id) = !c do incr c done;
    t.occupancy.(((!c land (window - 1)) * nlinks) + id) <- !c;
    p.contention_cycles <- p.contention_cycles + (!c - time);
    (* one cycle to traverse the hop *)
    !c + 1

  let send t ~src:(r1, c1) ~dst:(r2, c2) cls ~now =
    let h = abs (r1 - r2) + abs (c1 - c2) in
    let p = t.prof in
    let bucket = min h 5 in
    p.packets.(class_index cls).(bucket) <- p.packets.(class_index cls).(bucket) + 1;
    p.total_packets <- p.total_packets + 1;
    p.total_hops <- p.total_hops + h;
    if h = 0 then now
    else begin
      (* in-place dimension-ordered walk: same link claims, in the same
         order, as iterating [route src dst] — without allocating it *)
      let time = ref now in
      let r = ref r1 and c = ref c1 in
      while !r <> r2 do
        let dir = if r2 > !r then 1 else 0 in
        time := claim t (link_id (node !r !c) dir) !time;
        r := if r2 > !r then !r + 1 else !r - 1
      done;
      while !c <> c2 do
        let dir = if c2 > !c then 2 else 3 in
        time := claim t (link_id (node !r !c) dir) !time;
        c := if c2 > !c then !c + 1 else !c - 1
      done;
      !time
    end

  let claim_path t ~ci ~paths ~off ~len ~now =
    let p = t.prof in
    let bucket = if len < 5 then len else 5 in
    p.packets.(ci).(bucket) <- p.packets.(ci).(bucket) + 1;
    p.total_packets <- p.total_packets + 1;
    p.total_hops <- p.total_hops + len;
    let occ = t.occupancy in
    let time = ref now in
    let stall = ref 0 in
    for k = off to off + len - 1 do
      let id = Array.unsafe_get paths k in
      let c = ref !time in
      while Array.unsafe_get occ (((!c land (window - 1)) * nlinks) + id) = !c do
        incr c
      done;
      Array.unsafe_set occ (((!c land (window - 1)) * nlinks) + id) !c;
      stall := !stall + (!c - !time);
      time := !c + 1
    done;
    p.contention_cycles <- p.contention_cycles + !stall;
    !time

  let profile t = t.prof

  let reset t =
    Array.fill t.occupancy 0 (Array.length t.occupancy) (-1);
    Array.iter (fun row -> Array.fill row 0 (Array.length row) 0) t.prof.packets;
    t.prof.contention_cycles <- 0;
    t.prof.total_packets <- 0;
    t.prof.total_hops <- 0
end

let classes =
  [| Opn.Et_et; Opn.Et_dt; Opn.Et_rt; Opn.Et_gt; Opn.Dt_rt; Opn.Dt_et;
     Opn.Rt_et; Opn.Gt_any |]

let check_profile what (a : Opn.profile) (b : Opn.profile) =
  Alcotest.(check (array (array int))) (what ^ ": packets") b.Opn.packets a.Opn.packets;
  Alcotest.(check int) (what ^ ": total packets") b.Opn.total_packets a.Opn.total_packets;
  Alcotest.(check int) (what ^ ": total hops") b.Opn.total_hops a.Opn.total_hops;
  Alcotest.(check int) (what ^ ": contention") b.Opn.contention_cycles
    a.Opn.contention_cycles

(* One random stream against the table oracle: [send] and [claim_path]
   calls at or above a floor that advances monotonically, in bursts
   dense enough to contend, over [steps] operations.  With [far] some
   claims land past [floor + window], forcing the spill; the stream also
   jumps the floor by more than a window now and then, and resets both
   models.  Every arrival and the whole profile must agree; returns
   whether the ring spilled at some point and the contention cycles
   seen. *)
let equivalence_stream ~seed ~far ~steps =
  let rng = Random.State.make [| seed |] in
  let t = Opn.create () and r = Table_opn.create () in
  let floor = ref 0 and spilled = ref false and stalls = ref 0 in
  let pos () = (Random.State.int rng 5, Random.State.int rng 5) in
  for step = 1 to steps do
    let what = Printf.sprintf "seed %d step %d" seed step in
    let now () =
      if far && Random.State.int rng 50 = 0 then
        !floor + Opn.window - 20 + Random.State.int rng 60
      else !floor + Random.State.int rng 40
    in
    (match Random.State.int rng 100 with
    | k when k < 20 ->
      floor := !floor + Random.State.int rng 40;
      Opn.set_floor t !floor
    | k when k < 21 ->
      floor := !floor + Opn.window + Random.State.int rng 100;
      Opn.set_floor t !floor
    | k when k < 22 && step mod 7 = 0 ->
      spilled := !spilled || Opn.spilled t;
      stalls := !stalls + (Opn.profile t).Opn.contention_cycles;
      Opn.reset t;
      Table_opn.reset r;
      floor := 0
    | k when k < 60 ->
      let src = pos () and dst = pos () in
      let cls = classes.(Random.State.int rng 8) and now = now () in
      Alcotest.(check int) (what ^ ": send arrival")
        (Table_opn.send r ~src ~dst cls ~now)
        (Opn.send t ~src ~dst cls ~now)
    | _ ->
      let src = pos () and dst = pos () in
      let ids = Array.of_list (Opn.path_ids ~src ~dst) in
      let off = Random.State.int rng 3 in
      let paths = Array.append (Array.make off 0) ids in
      let ci = Random.State.int rng 8 and len = Array.length ids and now = now () in
      Alcotest.(check int) (what ^ ": claim_path arrival")
        (Table_opn.claim_path r ~ci ~paths ~off ~len ~now)
        (Opn.claim_path t ~ci ~paths ~off ~len ~now));
    check_profile what (Opn.profile t) (Table_opn.profile r)
  done;
  (!spilled || Opn.spilled t, !stalls + (Opn.profile t).Opn.contention_cycles)

(* The bit rows answer exactly as the int table: streams that stay inside
   the window never spill yet span many windows, and streams with
   far-future claims spill and keep agreeing on the table. *)
let test_equivalence () =
  let stays = ref 0 and spills = ref 0 and stalls = ref 0 in
  for seed = 1 to 60 do
    let far = seed mod 2 = 0 in
    let spilled, s = equivalence_stream ~seed ~far ~steps:3000 in
    stalls := !stalls + s;
    if far then (if spilled then incr spills)
    else begin
      Alcotest.(check bool) (Printf.sprintf "seed %d stays in the ring" seed)
        false spilled;
      incr stays
    end
  done;
  Alcotest.(check int) "every far stream spilled" 30 !spills;
  Alcotest.(check int) "near streams" 30 !stays;
  Alcotest.(check bool) "messages contend" true (!stalls > 0)

(* Known answers of the floor contract: a claim below the floor is a
   typed error, the floor cannot move down, a claim past the window
   spills the ring without changing any answer, and [reset] returns to
   the ring with the floor at 0. *)
let test_floor () =
  let t = Opn.create () in
  Opn.set_floor t 10;
  Alcotest.check_raises "send below the floor"
    (Invalid_argument "Opn: claim at cycle 9 is below the floor 10")
    (fun () -> ignore (Opn.send t ~src:(0, 0) ~dst:(0, 1) Opn.Et_et ~now:9));
  let paths = Array.of_list (Opn.path_ids ~src:(0, 0) ~dst:(2, 3)) in
  Alcotest.check_raises "claim_path below the floor"
    (Invalid_argument "Opn: claim at cycle 3 is below the floor 10")
    (fun () ->
      ignore (Opn.claim_path t ~ci:0 ~paths ~off:0 ~len:(Array.length paths) ~now:3));
  Alcotest.(check int) "a refused claim is not counted" 0
    (Opn.profile t).Opn.total_packets;
  Alcotest.check_raises "floor moves up only"
    (Invalid_argument "Opn.set_floor: 9 is below the floor 10")
    (fun () -> Opn.set_floor t 9);
  let a = Opn.send t ~src:(0, 0) ~dst:(0, 1) Opn.Et_et ~now:10 in
  Alcotest.(check int) "claim at the floor" 11 a;
  Alcotest.(check bool) "ring in use" false (Opn.spilled t);
  let top = 10 + Opn.window - 1 in
  let b = Opn.send t ~src:(0, 0) ~dst:(0, 1) Opn.Et_et ~now:top in
  Alcotest.(check int) "last ring cycle" (top + 1) b;
  Alcotest.(check bool) "still in the ring" false (Opn.spilled t);
  let c = Opn.send t ~src:(0, 0) ~dst:(0, 1) Opn.Et_et ~now:top in
  Alcotest.(check int) "contends past the window" (top + 2) c;
  Alcotest.(check bool) "spilled" true (Opn.spilled t);
  let d = Opn.send t ~src:(0, 0) ~dst:(0, 1) Opn.Et_et ~now:top in
  Alcotest.(check int) "reservations kept across the spill" (top + 3) d;
  Opn.reset t;
  Alcotest.(check bool) "reset returns to the ring" false (Opn.spilled t);
  Alcotest.(check int) "reset lowers the floor" 1
    (Opn.send t ~src:(0, 0) ~dst:(0, 1) Opn.Et_et ~now:0)

let () =
  Alcotest.run "noc"
    [
      ( "opn",
        [
          Alcotest.test_case "route length = Manhattan hops" `Quick
            test_route_length;
          Alcotest.test_case "dimension-ordered (Y then X)" `Quick
            test_route_dimension_order;
          Alcotest.test_case "uncontended latency" `Quick
            test_uncontended_latency;
          Alcotest.test_case "per-link single occupancy" `Quick
            test_link_single_occupancy;
          Alcotest.test_case "disjoint times do not contend" `Quick
            test_link_disjoint_times;
          Alcotest.test_case "hops pipeline" `Quick test_pipelined_hops;
          Alcotest.test_case "reset restores fresh state" `Quick test_reset;
          Alcotest.test_case "floor contract" `Quick test_floor;
          Alcotest.test_case "bit rows answer as the int table" `Quick
            test_equivalence;
        ] );
    ]
