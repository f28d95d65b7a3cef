open Flo_obs

type cache = { layer : Event.layer; node : int }

let cache_name c = Printf.sprintf "%s/%d" (Event.layer_to_string c.layer) c.node

let layers = [| Event.L1; Event.L2; Event.Disk |]

let layer_index = function Event.L1 -> 0 | Event.L2 -> 1 | Event.Disk -> 2

(* One cache's views.  Lookups are logged as packed block keys and replayed
   into [reuse] only when a reader asks for it (see [flush]). *)
type views = {
  cache : cache;
  sharing : Sharing.t;
  reuse : Reuse.t;
  mutable log : int array;  (* lookups not yet replayed into [reuse] *)
  mutable logged : int;
}

(* all-float, so stored flat: updating a field allocates nothing *)
type floats = { mutable t_min : float; mutable t_max : float; mutable disk_us : float }

type t = {
  by_node : views option array array;  (* layer index -> node -> views *)
  locality : Locality.t;
  keep_events : bool;
  mutable events_rev : Event.t list;
  mutable event_count : int;
  kind_counts : int array;  (* indexed by kind_index *)
  floats : floats;
}

let kind_index = function
  | Event.Access -> 0
  | Event.Hit -> 1
  | Event.Miss -> 2
  | Event.Evict -> 3
  | Event.Demote -> 4
  | Event.Prefetch -> 5
  | Event.Disk_read -> 6
  | Event.Fault -> 7
  | Event.Retry -> 8
  | Event.Timeout -> 9
  | Event.Failover -> 10
  | Event.Other _ -> 11

let create ?(keep_events = false) () =
  {
    by_node = Array.make (Array.length layers) [||];
    locality = Locality.create ();
    keep_events;
    events_rev = [];
    event_count = 0;
    kind_counts = Array.make 12 0;
    floats = { t_min = infinity; t_max = neg_infinity; disk_us = 0. };
  }

let slot t li node =
  let nodes = t.by_node.(li) in
  if node >= 0 && node < Array.length nodes then nodes.(node) else None

let add_views t li node =
  Packed.check_id "node" node;
  let nodes = t.by_node.(li) in
  let nodes =
    if node < Array.length nodes then nodes
    else begin
      let wider = Array.make (max (node + 1) (2 * Array.length nodes)) None in
      Array.blit nodes 0 wider 0 (Array.length nodes);
      t.by_node.(li) <- wider;
      wider
    end
  in
  let v =
    {
      cache = { layer = layers.(li); node };
      sharing = Sharing.create ();
      reuse = Reuse.create ();
      log = Array.make 64 0;
      logged = 0;
    }
  in
  nodes.(node) <- Some v;
  v

let views t layer node =
  let li = layer_index layer in
  match slot t li node with Some v -> v | None -> add_views t li node

let log_lookup v ~file ~block =
  let key = Packed.block ~file ~block in
  if v.logged >= Array.length v.log then v.log <- Packed.grow v.log v.logged 0;
  v.log.(v.logged) <- key;
  v.logged <- v.logged + 1

(* catch the reuse view up with every lookup fed so far: each lookup is
   replayed exactly once, in stream order *)
let flush v =
  for i = 0 to v.logged - 1 do
    let key = v.log.(i) in
    ignore (Reuse.touch v.reuse ~file:(Packed.file key) ~block:(Packed.index key))
  done;
  v.logged <- 0

let lookup t (e : Event.t) ~hit =
  let v = views t e.Event.layer e.Event.node in
  Sharing.touch v.sharing ~thread:e.Event.thread ~file:e.Event.file ~block:e.Event.block ~hit;
  log_lookup v ~file:e.Event.file ~block:e.Event.block

let feed t (e : Event.t) =
  t.event_count <- t.event_count + 1;
  if t.keep_events then t.events_rev <- e :: t.events_rev;
  let k = kind_index e.Event.kind in
  t.kind_counts.(k) <- t.kind_counts.(k) + 1;
  let f = t.floats in
  if e.Event.time_us < f.t_min then f.t_min <- e.Event.time_us;
  if e.Event.time_us > f.t_max then f.t_max <- e.Event.time_us;
  match e.Event.kind with
  | Event.Access ->
    Locality.touch t.locality ~thread:e.Event.thread ~file:e.Event.file
      ~block:e.Event.block
  | Event.Hit -> lookup t e ~hit:true
  | Event.Miss -> lookup t e ~hit:false
  | Event.Evict ->
    Sharing.evict (views t e.Event.layer e.Event.node).sharing ~thread:e.Event.thread
      ~file:e.Event.file ~block:e.Event.block
  | Event.Disk_read -> f.disk_us <- f.disk_us +. e.Event.latency_us
  (* failed attempts and failover reads occupy the disks too *)
  | Event.Fault | Event.Failover -> f.disk_us <- f.disk_us +. e.Event.latency_us
  | Event.Demote | Event.Prefetch | Event.Retry | Event.Timeout
  | Event.Other _ -> ()

let sink t = Sink.callback (feed t)

let of_events ?keep_events events =
  let t = create ?keep_events () in
  List.iter (feed t) events;
  t

type load_error = Io of string | Malformed of { line : int; msg : string }

let load_error_to_string = function
  | Io msg -> msg
  | Malformed { line; msg } -> Printf.sprintf "line %d: %s" line msg

(* the id ranges the views pack: a trace outside them is malformed data,
   whatever the event's kind *)
let in_range (e : Event.t) =
  let outside what v hi = Printf.sprintf "%s %d outside [0, %d]" what v hi in
  if e.Event.thread lsr Packed.id_bits <> 0 then
    Error (outside "thread" e.Event.thread Packed.max_id)
  else if e.Event.node lsr Packed.id_bits <> 0 then
    Error (outside "node" e.Event.node Packed.max_id)
  else if e.Event.file < 0 || e.Event.file > Packed.max_file then
    Error (outside "file" e.Event.file Packed.max_file)
  else if e.Event.block < 0 || e.Event.block > Packed.max_index then
    Error (outside "block" e.Event.block Packed.max_index)
  else Ok e

let load_channel ?keep_events ic =
  let t = create ?keep_events () in
  let lineno = ref 0 in
  let err = ref None in
  (try
     while !err = None do
       let line = input_line ic in
       incr lineno;
       if String.trim line <> "" then
         match Result.bind (Event.of_json line) in_range with
         | Ok e -> feed t e
         | Error msg -> err := Some (Malformed { line = !lineno; msg })
     done
   with End_of_file -> ());
  match !err with Some e -> Error e | None -> Ok t

let load_file ?keep_events path =
  match open_in path with
  | exception Sys_error msg -> Error (Io msg)
  | ic ->
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
        (* a directory opens fine and fails on the first read *)
        try load_channel ?keep_events ic with Sys_error msg -> Error (Io msg))

let events t = List.rev t.events_rev
let event_count t = t.event_count
let kind_count t kind = t.kind_counts.(kind_index kind)
let locality t = t.locality
let total_disk_us t = t.floats.disk_us

let time_span t = if t.event_count = 0 then (0., 0.) else (t.floats.t_min, t.floats.t_max)

let caches t =
  Array.fold_right
    (fun nodes acc ->
      Array.fold_right (fun v acc -> match v with Some v -> v.cache :: acc | None -> acc) nodes acc)
    t.by_node []

let find_views t c = slot t (layer_index c.layer) c.node

let reuse_of t c =
  match find_views t c with
  | Some v when Sharing.touches v.sharing > 0 ->
    flush v;
    Some v.reuse
  | Some _ | None -> None

let sharing_of t c = Option.map (fun v -> v.sharing) (find_views t c)

let layer_caches t layer = List.filter (fun c -> c.layer = layer) (caches t)

let fold_sharing t layer f init =
  List.fold_left
    (fun acc c -> match sharing_of t c with Some s -> f acc s | None -> acc)
    init (layer_caches t layer)

let cross_shared_at t layer =
  fold_sharing t layer (fun acc s -> acc + Sharing.cross_shared s) 0

let conflicts_at t layer =
  fold_sharing t layer (fun acc s -> acc + Sharing.total_conflicts s) 0

let reuse_histogram_at t layer =
  Histogram.merge_list
    (List.filter_map (fun c -> Option.map Reuse.histogram (reuse_of t c))
       (layer_caches t layer))
