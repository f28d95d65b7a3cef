type kind =
  | Access
  | Hit
  | Miss
  | Evict
  | Demote
  | Prefetch
  | Disk_read
  | Fault
  | Retry
  | Timeout
  | Failover
  | Other of string
type layer = L1 | L2 | Disk

type t = {
  time_us : float;
  kind : kind;
  layer : layer;
  node : int;
  thread : int;
  file : int;
  block : int;
  latency_us : float;
}

let make ~time_us ~kind ~layer ~node ~thread ~file ~block ?(latency_us = 0.) () =
  { time_us; kind; layer; node; thread; file; block; latency_us }

let kind_to_string = function
  | Access -> "access"
  | Hit -> "hit"
  | Miss -> "miss"
  | Evict -> "evict"
  | Demote -> "demote"
  | Prefetch -> "prefetch"
  | Disk_read -> "disk_read"
  | Fault -> "fault"
  | Retry -> "retry"
  | Timeout -> "timeout"
  | Failover -> "failover"
  | Other s -> s

let layer_to_string = function L1 -> "l1" | L2 -> "l2" | Disk -> "disk"

let to_json e =
  let b = Buffer.create 128 in
  Buffer.add_string b {|{"t_us":|};
  Json.add_fixed3 b e.time_us;
  Buffer.add_string b {|,"kind":"|};
  Buffer.add_string b (Json.escape (kind_to_string e.kind));
  Buffer.add_string b {|","layer":"|};
  Buffer.add_string b (layer_to_string e.layer);
  Buffer.add_string b {|","node":|};
  Json.add_int b e.node;
  Buffer.add_string b {|,"thread":|};
  Json.add_int b e.thread;
  Buffer.add_string b {|,"file":|};
  Json.add_int b e.file;
  Buffer.add_string b {|,"block":|};
  Json.add_int b e.block;
  Buffer.add_string b {|,"lat_us":|};
  Json.add_fixed3 b e.latency_us;
  Buffer.add_char b '}';
  Buffer.contents b

let kind_of_string = function
  | "access" -> Some Access
  | "hit" -> Some Hit
  | "miss" -> Some Miss
  | "evict" -> Some Evict
  | "demote" -> Some Demote
  | "prefetch" -> Some Prefetch
  | "disk_read" -> Some Disk_read
  | "fault" -> Some Fault
  | "retry" -> Some Retry
  | "timeout" -> Some Timeout
  | "failover" -> Some Failover
  | _ -> None

let layer_of_string = function
  | "l1" -> Some L1
  | "l2" -> Some L2
  | "disk" -> Some Disk
  | _ -> None

(* unknown kinds round-trip as opaque [Other] records: a trace written by a
   newer emitter must not fail an older analyzer's whole load *)
let of_json line =
  let open Json in
  decode
    (fun j ->
      let kind =
        let s = field "kind" str j in
        match kind_of_string s with Some k -> k | None -> Other s
      in
      let layer =
        let s = field "layer" str j in
        match layer_of_string s with Some l -> l | None -> fail "unknown layer %S" s
      in
      {
        time_us = field "t_us" num j;
        kind;
        layer;
        node = field "node" int j;
        thread = field "thread" int j;
        file = field "file" int j;
        block = field "block" int j;
        latency_us = Option.value ~default:0. (field_opt "lat_us" num j);
      })
    line

let pp ppf e =
  Format.fprintf ppf "[%10.3f] %-9s %s/%d thread=%d block=%d:%d%s" e.time_us
    (kind_to_string e.kind) (layer_to_string e.layer) e.node e.thread e.file e.block
    (if e.latency_us > 0. then Printf.sprintf " lat=%.3fus" e.latency_us else "")
