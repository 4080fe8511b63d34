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

(* Each link carries one operand per cycle.  Messages are timed out of
   order — the simulator walks dataflow, not time — so occupancy is kept
   per cycle, and messages contend only when they genuinely overlap.

   Reservations live in a ring of link bit rows: ring slot [c mod window]
   holds cycle [c]'s links as two words of 50 bits ([link_id] < 100).
   The ring is valid for cycles in [floor, floor + window).  The caller
   raises the floor ({!set_floor}) to a cycle below which it will never
   claim again; the rows it passes are cleared, ready for the cycles
   [window] later.  The whole ring is 64 KB, so a probe stays in cache.

   A probe at or beyond [floor + window] cannot be answered by the ring.
   The first one spills it into the overflow table, a per-link circular
   table over cycles (slot [c mod window] holds the cycle that claimed
   it), and that table answers every probe for the rest of the run.  The
   spill is exact: while every claim lies in its window, two live claims
   never share a table slot, so a table built claim by claim from the
   start would hold the same live reservations, and its stale entries are
   cycles below the floor that no later probe reaches.  The table is laid
   out time-major (slot rows of one cell per link): claims cluster around
   the slowly-advancing time frontier. *)
let window = 4096

type t = {
  rows : int array;            (* (slot * 2 + link / 50) -> link bits *)
  mutable floor : int;
  mutable limit : int;         (* floor + window; min_int once spilled *)
  mutable table : int array;   (* (slot * nlinks + link) -> claiming cycle;
                                  allocated by the first spill *)
  prof : profile;
}

let size = 5
let node r c = (r * size) + c
let link_id n dir = (n * 4) + dir
let nlinks = size * size * 4
let row_bits = 50

let create () =
  {
    rows = Array.make (2 * window) 0;
    floor = 0;
    limit = window;
    table = [||];
    prof =
      {
        packets = Array.make_matrix 8 6 0;
        contention_cycles = 0;
        total_packets = 0;
        total_hops = 0;
      };
  }

let spilled t = t.limit = min_int

let set_floor t c =
  if c < t.floor then
    invalid_arg (Printf.sprintf "Opn.set_floor: %d is below the floor %d" c t.floor);
  if not (spilled t) then begin
    for k = t.floor to min c t.limit - 1 do
      let slot = (k land (window - 1)) * 2 in
      Array.unsafe_set t.rows slot 0;
      Array.unsafe_set t.rows (slot + 1) 0
    done;
    t.limit <- c + window
  end;
  t.floor <- c

let check_floor t now =
  if now < t.floor then
    invalid_arg
      (Printf.sprintf "Opn: claim at cycle %d is below the floor %d" now t.floor)

(* Rebuild the overflow table from the live rows; it answers every probe
   from now on. *)
let spill t =
  if Array.length t.table = 0 then t.table <- Array.make (nlinks * window) (-1)
  else Array.fill t.table 0 (Array.length t.table) (-1);
  for c = t.floor to t.limit - 1 do
    let slot = c land (window - 1) in
    for id = 0 to nlinks - 1 do
      let w = t.rows.((slot * 2) + (id / row_bits)) in
      if w land (1 lsl (id mod row_bits)) <> 0 then
        t.table.((slot * nlinks) + id) <- c
    done
  done;
  t.limit <- min_int

(* [claim] past the ring: spill on the first such probe, then probe the
   table from cycle [c]. *)
let claim_table t id c =
  if not (spilled t) then spill t;
  (* window is a power of two: slot index is a mask, not a division *)
  let occ = t.table in
  let c = ref c in
  while Array.unsafe_get occ (((!c land (window - 1)) * nlinks) + id) = !c do
    incr c
  done;
  Array.unsafe_set occ (((!c land (window - 1)) * nlinks) + id) !c;
  !c

(* Claim the first free cycle at or after [time] on link [id]; returns
   the claimed cycle.  [time] is at or above the floor. *)
let[@inline] claim t id time =
  let rows = t.rows and limit = t.limit in
  let w = if id >= row_bits then 1 else 0 in
  let bit = 1 lsl (id - (w * row_bits)) in
  let c = ref time in
  while
    !c < limit
    && Array.unsafe_get rows (((!c land (window - 1)) * 2) + w) land bit <> 0
  do
    incr c
  done;
  if !c < limit then begin
    let k = ((!c land (window - 1)) * 2) + w in
    Array.unsafe_set rows k (Array.unsafe_get rows k lor bit);
    !c
  end
  else claim_table t id !c

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

let send t ~src:(r1, c1) ~dst:(r2, c2) cls ~now =
  check_floor t now;
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
    (* one cycle to traverse the hop *)
    let hop id =
      let c = claim t id !time in
      p.contention_cycles <- p.contention_cycles + (c - !time);
      time := c + 1
    in
    let r = ref r1 and c = ref c1 in
    while !r <> r2 do
      hop (link_id (node !r !c) (if r2 > !r then 1 else 0));
      r := if r2 > !r then !r + 1 else !r - 1
    done;
    while !c <> c2 do
      hop (link_id (node !r !c) (if c2 > !c then 2 else 3));
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
  check_floor t now;
  let p = t.prof in
  let bucket = if len < 5 then len else 5 in
  p.packets.(ci).(bucket) <- p.packets.(ci).(bucket) + 1;
  p.total_packets <- p.total_packets + 1;
  p.total_hops <- p.total_hops + len;
  let time = ref now in
  let stall = ref 0 in
  for k = off to off + len - 1 do
    let c = claim t (Array.unsafe_get paths k) !time in
    stall := !stall + (c - !time);
    time := c + 1
  done;
  p.contention_cycles <- p.contention_cycles + !stall;
  !time

let profile t = t.prof

let average_hops t =
  if t.prof.total_packets = 0 then 0.
  else float_of_int t.prof.total_hops /. float_of_int t.prof.total_packets

let reset t =
  Array.fill t.rows 0 (Array.length t.rows) 0;
  t.floor <- 0;
  t.limit <- window;
  Array.iter (fun row -> Array.fill row 0 (Array.length row) 0) t.prof.packets;
  t.prof.contention_cycles <- 0;
  t.prof.total_packets <- 0;
  t.prof.total_hops <- 0
