(* [prev.(id) = absent] marks a non-member; [-1] ends the list in
   either direction. *)
let absent = -2

type t = {
  next : int array;
  prev : int array;
  mutable tasks : Task.t array;  (* by id; allocated on the first append *)
  mutable head : int;
  mutable tail : int;
  mutable length : int;
}

let create n =
  {
    next = Array.make n (-1);
    prev = Array.make n absent;
    tasks = [||];
    head = -1;
    tail = -1;
    length = 0;
  }

let length r = r.length
let mem r (t : Task.t) = r.prev.(t.Task.id) <> absent

let append r (t : Task.t) =
  let id = t.Task.id in
  if mem r t then invalid_arg (Printf.sprintf "Ready.append: task %d is already ready" id);
  if Array.length r.tasks = 0 then r.tasks <- Array.make (Array.length r.next) t;
  r.tasks.(id) <- t;
  if r.tail < 0 then r.head <- id else r.next.(r.tail) <- id;
  r.prev.(id) <- r.tail;
  r.next.(id) <- -1;
  r.tail <- id;
  r.length <- r.length + 1

let remove r (t : Task.t) =
  let id = t.Task.id in
  if not (mem r t) then invalid_arg (Printf.sprintf "Ready.remove: task %d is not ready" id);
  let p = r.prev.(id) and n = r.next.(id) in
  if p >= 0 then r.next.(p) <- n else r.head <- n;
  if n >= 0 then r.prev.(n) <- p else r.tail <- p;
  r.prev.(id) <- absent;
  r.length <- r.length - 1
