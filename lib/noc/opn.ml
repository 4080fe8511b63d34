type cls = Et_et | Et_dt | Et_rt | Et_gt | Dt_rt | Dt_et | Rt_et | Gt_any

let class_index = function
  | Et_et -> 0
  | Et_dt -> 1
  | Et_rt -> 2
  | Et_gt -> 3
  | Dt_rt -> 4
  | Dt_et -> 5
  | Rt_et -> 6
  | Gt_any -> 7

let class_name = function
  | 0 -> "ET-ET"
  | 1 -> "ET-DT"
  | 2 -> "ET-RT"
  | 3 -> "ET-GT"
  | 4 -> "DT-RT"
  | 5 -> "DT-ET"
  | 6 -> "RT-ET"
  | _ -> "GT-*"

type profile = {
  packets : int array array;
  mutable contention_cycles : int;
  mutable total_packets : int;
  mutable total_hops : int;
}

(* Each link carries one operand per cycle.  Occupancy is tracked with a
   per-link circular table over cycles (slot c mod window holds the cycle
   number that claimed it), so messages timed out of order — the simulator
   walks dataflow, not time — still contend only when they genuinely
   overlap in time.

   The table is laid out time-major (slot rows of one cell per link):
   claims cluster around the simulation's slowly-advancing time frontier,
   so the hot footprint is a contiguous band of rows instead of a strided
   cell in every link's private region. *)
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

let hops ~src:(r1, c1) ~dst:(r2, c2) = abs (r1 - r2) + abs (c1 - c2)

(* Y-first (row) then X (column) dimension-ordered routing.  [send] walks
   the same path in place; this list-building version is kept as the
   specification, and through [path_ids] it is also the static timing
   analyzer's link-load path. *)
let route (r1, c1) (r2, c2) =
  let steps = ref [] in
  let r = ref r1 and c = ref c1 in
  while !r <> r2 do
    let dir = if r2 > !r then 1 else 0 in
    steps := (node !r !c, dir) :: !steps;
    r := if r2 > !r then !r + 1 else !r - 1
  done;
  while !c <> c2 do
    let dir = if c2 > !c then 2 else 3 in
    steps := (node !r !c, dir) :: !steps;
    c := if c2 > !c then !c + 1 else !c - 1
  done;
  List.rev !steps

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

(* The claim-order link ids of [route src dst]; lets callers precompute a
   message's whole path when both endpoints are static. *)
let path_ids ~src ~dst =
  List.map (fun (n, dir) -> link_id n dir) (route src dst)

(* [send] over a precomputed path: same histogram accounting, same link
   claims in the same order.  [ci] is the {!class_index}; the path is
   [paths.(off) .. paths.(off + len - 1)] and [len] is the hop count. *)
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

let average_hops t =
  if t.prof.total_packets = 0 then 0.
  else float_of_int t.prof.total_hops /. float_of_int t.prof.total_packets

let reset t =
  Array.fill t.occupancy 0 (Array.length t.occupancy) (-1);
  Array.iter (fun row -> Array.fill row 0 (Array.length row) 0) t.prof.packets;
  t.prof.contention_cycles <- 0;
  t.prof.total_packets <- 0;
  t.prof.total_hops <- 0
