type t = {
  table : bool array;
  decay_interval : int;
  mutable accesses : int;
}

let create ?(entries = 1024) ?(decay_interval = 100_000) () =
  { table = Array.make entries false; decay_interval; accesses = 0 }

let site_id ~block index = Hashtbl.hash (block, index)

let index t load_id = load_id land (Array.length t.table - 1)

let should_wait t ~load_id =
  t.accesses <- t.accesses + 1;
  if t.accesses mod t.decay_interval = 0 then Array.fill t.table 0 (Array.length t.table) false;
  t.table.(index t load_id)

let record_violation t ~load_id = t.table.(index t load_id) <- true
