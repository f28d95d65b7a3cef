open Flo_obs

type cache = { layer : Event.layer; node : int }

let cache_name c = Printf.sprintf "%s/%d" (Event.layer_to_string c.layer) c.node

(* L1 caches sort before L2, nodes ascending — the report order *)
let cache_rank c =
  ((match c.layer with Event.L1 -> 0 | Event.L2 -> 1 | Event.Disk -> 2), c.node)

type t = {
  reuse : (cache, Reuse.t) Hashtbl.t;
  sharing : (cache, Sharing.t) Hashtbl.t;
  locality : Locality.t;
  keep_events : bool;
  mutable events_rev : Event.t list;
  mutable event_count : int;
  kind_counts : int array;  (* indexed by kind_index *)
  mutable t_min : float;
  mutable t_max : float;
  mutable disk_us : float;
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
    reuse = Hashtbl.create 8;
    sharing = Hashtbl.create 8;
    locality = Locality.create ();
    keep_events;
    events_rev = [];
    event_count = 0;
    kind_counts = Array.make 12 0;
    t_min = infinity;
    t_max = neg_infinity;
    disk_us = 0.;
  }

let find_or tbl key make =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
    let v = make () in
    Hashtbl.add tbl key v;
    v

let feed t (e : Event.t) =
  t.event_count <- t.event_count + 1;
  if t.keep_events then t.events_rev <- e :: t.events_rev;
  let k = kind_index e.Event.kind in
  t.kind_counts.(k) <- t.kind_counts.(k) + 1;
  if e.Event.time_us < t.t_min then t.t_min <- e.Event.time_us;
  if e.Event.time_us > t.t_max then t.t_max <- e.Event.time_us;
  let c = { layer = e.Event.layer; node = e.Event.node } in
  match e.Event.kind with
  | Event.Access ->
    Locality.touch t.locality ~thread:e.Event.thread ~file:e.Event.file
      ~block:e.Event.block
  | Event.Hit | Event.Miss ->
    let hit = e.Event.kind = Event.Hit in
    ignore
      (Reuse.touch (find_or t.reuse c Reuse.create) ~file:e.Event.file
         ~block:e.Event.block);
    Sharing.touch (find_or t.sharing c Sharing.create) ~thread:e.Event.thread
      ~file:e.Event.file ~block:e.Event.block ~hit
  | Event.Evict ->
    Sharing.evict (find_or t.sharing c Sharing.create) ~thread:e.Event.thread
      ~file:e.Event.file ~block:e.Event.block
  | Event.Disk_read -> t.disk_us <- t.disk_us +. e.Event.latency_us
  (* failed attempts and failover reads occupy the disks too *)
  | Event.Fault | Event.Failover -> t.disk_us <- t.disk_us +. e.Event.latency_us
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

let load_channel ?keep_events ic =
  let t = create ?keep_events () in
  let lineno = ref 0 in
  let err = ref None in
  (try
     while !err = None do
       let line = input_line ic in
       incr lineno;
       if String.trim line <> "" then
         match Event.of_json line with
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
let total_disk_us t = t.disk_us

let time_span t = if t.event_count = 0 then (0., 0.) else (t.t_min, t.t_max)

let caches t =
  let keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] in
  List.sort_uniq
    (fun a b -> compare (cache_rank a) (cache_rank b))
    (keys t.reuse @ keys t.sharing)

let reuse_of t c = Hashtbl.find_opt t.reuse c
let sharing_of t c = Hashtbl.find_opt t.sharing c

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
