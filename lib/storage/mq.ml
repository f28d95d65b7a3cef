type entry = {
  block : Block.t;
  mutable freq : int;
  mutable level : int;
  mutable expire : int;
  mutable node : Block.t Dll.node option;
}

type state = {
  capacity : int;
  queues : Block.t Dll.t array;
  tbl : entry Block.Tbl.t;
  hist : int Block.Tbl.t; (* evicted block -> remembered frequency *)
  hist_fifo : Block.t Queue.t;
  hist_cap : int;
  lifetime : int;
  mutable time : int;
  mutable count : int;
}

let level_of_freq queues f =
  let rec go l f = if f <= 1 || l >= queues - 1 then l else go (l + 1) (f / 2) in
  go 0 f

let enqueue s e =
  e.level <- level_of_freq (Array.length s.queues) e.freq;
  e.expire <- s.time + s.lifetime;
  e.node <- Some (Dll.push_front s.queues.(e.level) e.block)

(* Demote the head-of-expiry candidate: MQ checks the LRU block of the
   lowest non-empty queue; if its lifetime expired, move it one queue down. *)
let adjust s =
  let rec lowest l =
    if l >= Array.length s.queues then None
    else if Dll.is_empty s.queues.(l) then lowest (l + 1)
    else Some l
  in
  match lowest 1 with
  | None -> ()
  | Some l -> (
    match Dll.peek_back s.queues.(l) with
    | None -> ()
    | Some n ->
      let b = Dll.value n in
      let e = Block.Tbl.find s.tbl b in
      if e.expire < s.time then begin
        Dll.remove s.queues.(l) n;
        e.level <- l - 1;
        e.expire <- s.time + s.lifetime;
        e.node <- Some (Dll.push_front s.queues.(l - 1) e.block)
      end)

let tick s =
  s.time <- s.time + 1;
  adjust s

let remember s b freq =
  if not (Block.Tbl.mem s.hist b) then begin
    if Queue.length s.hist_fifo >= s.hist_cap then begin
      match Queue.take_opt s.hist_fifo with
      | Some old -> Block.Tbl.remove s.hist old
      | None -> ()
    end;
    Queue.add b s.hist_fifo
  end;
  Block.Tbl.replace s.hist b freq

let evict s =
  let rec go l =
    if l >= Array.length s.queues then None
    else
      match Dll.pop_back s.queues.(l) with
      | Some victim ->
        let e = Block.Tbl.find s.tbl victim in
        remember s victim e.freq;
        Block.Tbl.remove s.tbl victim;
        s.count <- s.count - 1;
        Some victim
      | None -> go (l + 1)
  in
  go 0

let touch s b =
  tick s;
  match Block.Tbl.find_opt s.tbl b with
  | None -> false
  | Some e ->
    (match e.node with Some n -> Dll.remove s.queues.(e.level) n | None -> ());
    e.freq <- e.freq + 1;
    enqueue s e;
    true

let insert s b =
  tick s;
  match Block.Tbl.find_opt s.tbl b with
  | Some e ->
    (match e.node with Some n -> Dll.remove s.queues.(e.level) n | None -> ());
    e.freq <- e.freq + 1;
    enqueue s e;
    None
  | None ->
    let victim = if s.count >= s.capacity then evict s else None in
    let freq =
      match Block.Tbl.find_opt s.hist b with
      | Some f ->
        Block.Tbl.remove s.hist b;
        f + 1
      | None -> 1
    in
    let e = { block = b; freq; level = 0; expire = 0; node = None } in
    Block.Tbl.add s.tbl b e;
    s.count <- s.count + 1;
    enqueue s e;
    victim

let remove s b =
  match Block.Tbl.find_opt s.tbl b with
  | None -> false
  | Some e ->
    (match e.node with Some n -> Dll.remove s.queues.(e.level) n | None -> ());
    Block.Tbl.remove s.tbl b;
    s.count <- s.count - 1;
    true

let create ~capacity : Policy.t =
  Policy.check_capacity capacity;
  let s =
    {
      capacity;
      queues = Array.init 8 (fun _ -> Dll.create ());
      tbl = Block.Tbl.create (2 * capacity);
      hist = Block.Tbl.create (8 * capacity);
      hist_fifo = Queue.create ();
      hist_cap = 4 * capacity;
      lifetime = 4 * capacity;
      time = 0;
      count = 0;
    }
  in
  {
    Policy.name = "mq";
    capacity;
    touch = touch s;
    insert = insert s;
    insert_cold = insert s;
    remove = remove s;
    contains = (fun b -> Block.Tbl.mem s.tbl b);
    size = (fun () -> s.count);
    clear =
      (fun () ->
        Array.iter Dll.clear s.queues;
        Block.Tbl.clear s.tbl;
        Block.Tbl.clear s.hist;
        Queue.clear s.hist_fifo;
        s.time <- 0;
        s.count <- 0);
    iter = (fun f -> Block.Tbl.iter (fun b _ -> f b) s.tbl);
    fast = None;
  }
