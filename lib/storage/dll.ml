type 'a node = {
  v : 'a;
  mutable prev : 'a node option;
  mutable next : 'a node option;
  mutable owner : int; (* id of the list currently holding the node, -1 if none *)
}

type 'a t = {
  id : int;
  mutable front : 'a node option;
  mutable back : 'a node option;
  mutable len : int;
}

let next_id = ref 0

let create () =
  incr next_id;
  { id = !next_id; front = None; back = None; len = 0 }

let length t = t.len

let push_front t v =
  let n = { v; prev = None; next = t.front; owner = t.id } in
  (match t.front with Some h -> h.prev <- Some n | None -> t.back <- Some n);
  t.front <- Some n;
  t.len <- t.len + 1;
  n

let push_back t v =
  let n = { v; prev = t.back; next = None; owner = t.id } in
  (match t.back with Some b -> b.next <- Some n | None -> t.front <- Some n);
  t.back <- Some n;
  t.len <- t.len + 1;
  n

let remove t n =
  if n.owner <> t.id then invalid_arg "Dll.remove: node not in this list";
  (match n.prev with Some p -> p.next <- n.next | None -> t.front <- n.next);
  (match n.next with Some q -> q.prev <- n.prev | None -> t.back <- n.prev);
  n.prev <- None;
  n.next <- None;
  n.owner <- -1;
  t.len <- t.len - 1

let move_front t n =
  remove t n;
  n.next <- t.front;
  n.owner <- t.id;
  (match t.front with Some h -> h.prev <- Some n | None -> t.back <- Some n);
  t.front <- Some n;
  t.len <- t.len + 1

let pop_back t =
  match t.back with
  | None -> None
  | Some n ->
    remove t n;
    Some n.v

let iter f t =
  let rec go = function
    | None -> ()
    | Some n ->
      f n.v;
      go n.next
  in
  go t.front

let clear t =
  (* detach nodes so stale handles are rejected by [remove] *)
  let rec go = function
    | None -> ()
    | Some n ->
      let next = n.next in
      n.prev <- None;
      n.next <- None;
      n.owner <- -1;
      go next
  in
  go t.front;
  t.front <- None;
  t.back <- None;
  t.len <- 0
