exception Closed

type 'a t = {
  lock : Mutex.t;
  not_empty : Condition.t;
  items : 'a Queue.t;
  capacity : int;
  mutable closed : bool;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Workq.create: capacity must be positive";
  {
    lock = Mutex.create ();
    not_empty = Condition.create ();
    items = Queue.create ();
    capacity;
    closed = false;
  }

(* Admission-control primitive: a producer that must never block (a
   request thread holding a connection open) sheds instead. *)
let try_push t x =
  Mutex.lock t.lock;
  if t.closed then (
    Mutex.unlock t.lock;
    raise Closed);
  let admitted = Queue.length t.items < t.capacity in
  if admitted then begin
    Queue.push x t.items;
    Condition.signal t.not_empty
  end;
  Mutex.unlock t.lock;
  admitted

let pop t =
  Mutex.lock t.lock;
  while Queue.is_empty t.items && not t.closed do
    Condition.wait t.not_empty t.lock
  done;
  let r = Queue.take_opt t.items in
  Mutex.unlock t.lock;
  r

let close t =
  Mutex.lock t.lock;
  t.closed <- true;
  Condition.broadcast t.not_empty;
  Mutex.unlock t.lock

let length t =
  Mutex.lock t.lock;
  let n = Queue.length t.items in
  Mutex.unlock t.lock;
  n
