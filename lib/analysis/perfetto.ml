(* Chrome trace-event JSON ("JSON Object Format") for ui.perfetto.dev /
   chrome://tracing.

   Track layout:
     pid 1  "requests"  one track per thread; each block request is a
                        complete ("ph":"X") slice from its arrival to the
                        next request of the same thread, colored by outcome
                        (L1 hit / L2 hit / disk read).
     pid 2  "caches"    one track per cache or disk; evictions, demotions,
                        prefetches and disk reads appear as instant events.

   Timestamps are the trace's simulated microseconds, which is exactly the
   unit the format expects. *)

open Flo_obs

type outcome = O_unknown | O_l1_hit | O_l2_hit | O_disk

let outcome_name = function
  | O_unknown -> "request"
  | O_l1_hit -> "l1_hit"
  | O_l2_hit -> "l2_hit"
  | O_disk -> "disk"

(* legacy chrome tracing color names; Perfetto maps them to its palette *)
let outcome_cname = function
  | O_unknown -> "grey"
  | O_l1_hit -> "good"
  | O_l2_hit -> "bad"
  | O_disk -> "terrible"

type request = {
  start_us : float;
  file : int;
  block : int;
  mutable outcome : outcome;
  mutable disk_us : float;
}

(* every event is appended field by field, numbers through the Json
   writers; [event buf first] opens the next array element *)
let event buf first =
  if !first then first := false else Buffer.add_char buf ',';
  Buffer.add_string buf "\n  "

let add_quoted buf s =
  Buffer.add_char buf '"';
  Buffer.add_string buf s;
  Buffer.add_char buf '"'

let add_block buf ~file ~block =
  Buffer.add_char buf 'f';
  Json.add_int buf file;
  Buffer.add_string buf ":b";
  Json.add_int buf block

let constant_event buf first json =
  event buf first;
  Buffer.add_string buf json

(* a track's name metadata, its label written by [label] *)
let thread_name buf first ~pid ~tid label =
  event buf first;
  Buffer.add_string buf {|{"ph":"M","pid":|};
  Json.add_int buf pid;
  Buffer.add_string buf {|,"tid":|};
  Json.add_int buf tid;
  Buffer.add_string buf {|,"name":"thread_name","args":{"name":"|};
  label ();
  Buffer.add_string buf {|"}}|}

let to_buffer buf events =
  Buffer.add_string buf "{\"traceEvents\": [";
  let first = ref true in
  constant_event buf first
    {|{"ph":"M","pid":1,"name":"process_name","args":{"name":"requests"}}|};
  constant_event buf first
    {|{"ph":"M","pid":2,"name":"process_name","args":{"name":"caches"}}|};
  let threads_seen = Hashtbl.create 16 in
  let cache_tids : (Event.layer * int, int) Hashtbl.t = Hashtbl.create 16 in
  let next_cache_tid = ref 0 in
  let cache_tid layer node =
    match Hashtbl.find_opt cache_tids (layer, node) with
    | Some tid -> tid
    | None ->
      let tid = !next_cache_tid in
      incr next_cache_tid;
      Hashtbl.add cache_tids (layer, node) tid;
      thread_name buf first ~pid:2 ~tid (fun () ->
          Buffer.add_string buf (Event.layer_to_string layer);
          Buffer.add_char buf '/';
          Json.add_int buf node);
      tid
  in
  let open_requests : (int, request) Hashtbl.t = Hashtbl.create 16 in
  (* stable per-slice ids: the k-th request of a thread always exports the
     same trace_id/span_id (minted from the (thread, k) counter position,
     never from content or wall clock), so slices cross-reference with
     `flopt trace` output and diff clean across exports *)
  let req_seq : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let close_request thread r ~end_us =
    let seq = Option.value ~default:0 (Hashtbl.find_opt req_seq thread) in
    Hashtbl.replace req_seq thread (seq + 1);
    let trace_id = Flo_faults.Prng.at ~seed:0 ~stream:thread seq in
    let dur = Float.max (end_us -. r.start_us) 0.001 in
    event buf first;
    Buffer.add_string buf {|{"ph":"X","pid":1,"tid":|};
    Json.add_int buf thread;
    Buffer.add_string buf {|,"ts":|};
    Json.add_fixed3 buf r.start_us;
    Buffer.add_string buf {|,"dur":|};
    Json.add_fixed3 buf dur;
    Buffer.add_string buf {|,"name":"|};
    add_block buf ~file:r.file ~block:r.block;
    Buffer.add_string buf {|","cat":|};
    add_quoted buf (outcome_name r.outcome);
    Buffer.add_string buf {|,"cname":|};
    add_quoted buf (outcome_cname r.outcome);
    Buffer.add_string buf {|,"args":{"file":|};
    Json.add_int buf r.file;
    Buffer.add_string buf {|,"block":|};
    Json.add_int buf r.block;
    Buffer.add_string buf {|,"outcome":|};
    add_quoted buf (outcome_name r.outcome);
    Buffer.add_string buf {|,"trace_id":"|};
    Json.add_hex64 buf trace_id;
    Buffer.add_string buf {|","span_id":"|};
    Json.add_hex64 buf (Flo_obs.Trace.span_id ~trace_id 0);
    Buffer.add_char buf '"';
    if r.disk_us > 0. then begin
      Buffer.add_string buf {|,"disk_us":|};
      Json.add_fixed3 buf r.disk_us
    end;
    Buffer.add_string buf "}}"
  in
  let instant (e : Event.t) verb =
    let tid = cache_tid e.Event.layer e.Event.node in
    event buf first;
    Buffer.add_string buf {|{"ph":"i","pid":2,"tid":|};
    Json.add_int buf tid;
    Buffer.add_string buf {|,"ts":|};
    Json.add_fixed3 buf e.Event.time_us;
    Buffer.add_string buf {|,"name":"|};
    Buffer.add_string buf verb;
    Buffer.add_char buf ' ';
    add_block buf ~file:e.Event.file ~block:e.Event.block;
    Buffer.add_string buf {|","s":"t","args":{"thread":|};
    Json.add_int buf e.Event.thread;
    Buffer.add_string buf "}}"
  in
  List.iter
    (fun (e : Event.t) ->
      let thread = e.Event.thread in
      if not (Hashtbl.mem threads_seen thread) then begin
        Hashtbl.add threads_seen thread ();
        thread_name buf first ~pid:1 ~tid:thread (fun () ->
            Buffer.add_string buf "thread ";
            Json.add_int buf thread)
      end;
      match e.Event.kind with
      | Event.Access ->
        (match Hashtbl.find_opt open_requests thread with
        | Some r ->
          close_request thread r ~end_us:e.Event.time_us;
          Hashtbl.remove open_requests thread
        | None -> ());
        Hashtbl.add open_requests thread
          {
            start_us = e.Event.time_us;
            file = e.Event.file;
            block = e.Event.block;
            outcome = O_unknown;
            disk_us = 0.;
          }
      | Event.Hit ->
        (match Hashtbl.find_opt open_requests thread with
        | Some r when r.outcome = O_unknown ->
          r.outcome <-
            (match e.Event.layer with Event.L1 -> O_l1_hit | _ -> O_l2_hit)
        | _ -> ())
      | Event.Disk_read ->
        (match Hashtbl.find_opt open_requests thread with
        | Some r ->
          r.outcome <- O_disk;
          r.disk_us <- r.disk_us +. e.Event.latency_us
        | None -> ());
        instant e "disk_read"
      | Event.Failover ->
        (* a failover read resolves the open request at the replica disk *)
        (match Hashtbl.find_opt open_requests thread with
        | Some r ->
          r.outcome <- O_disk;
          r.disk_us <- r.disk_us +. e.Event.latency_us
        | None -> ());
        instant e "failover"
      | Event.Fault ->
        (match Hashtbl.find_opt open_requests thread with
        | Some r -> r.disk_us <- r.disk_us +. e.Event.latency_us
        | None -> ());
        instant e "fault"
      | Event.Evict -> instant e "evict"
      | Event.Demote -> instant e "demote"
      | Event.Prefetch -> instant e "prefetch"
      | Event.Retry -> instant e "retry"
      | Event.Timeout -> instant e "timeout"
      | Event.Other name ->
        (* forward-compat names come off the wire unvalidated *)
        instant e (Json.escape name)
      | Event.Miss -> ())
    events;
  Hashtbl.fold (fun thread r acc -> (thread, r) :: acc) open_requests []
  |> List.sort compare
  |> List.iter (fun (thread, r) ->
         (* no successor request: give the tail slice its own service time *)
         close_request thread r ~end_us:(r.start_us +. Float.max r.disk_us 1.0));
  Buffer.add_string buf "\n], \"displayTimeUnit\": \"ms\"}\n"

let json_of_events events =
  let buf = Buffer.create 65536 in
  to_buffer buf events;
  Buffer.contents buf

let write oc events =
  let buf = Buffer.create 65536 in
  to_buffer buf events;
  Buffer.output_buffer oc buf

(* Sampled-trace export: one track per trace (span trees of one tenant
   overlap in modeled time, so they cannot stack on a shared track), slices
   nested exactly as the span tree nests.  Every slice carries the same
   trace_id/span_id pair `flopt trace` renders — preorder numbering via
   Trace.span_id — so the two views cross-reference by id. *)
let traces_to_buffer buf traces =
  let module Trace = Flo_obs.Trace in
  Buffer.add_string buf "{\"traceEvents\": [";
  let first = ref true in
  constant_event buf first
    {|{"ph":"M","pid":1,"name":"process_name","args":{"name":"sampled traces"}}|};
  List.iteri
    (fun tid (t : Trace.t) ->
      let outcome = Json.escape t.Trace.outcome in
      thread_name buf first ~pid:1 ~tid (fun () ->
          Json.add_hex64 buf t.Trace.trace_id;
          Buffer.add_string buf " tenant=";
          Json.add_int buf t.Trace.tenant;
          Buffer.add_char buf ' ';
          Buffer.add_string buf outcome);
      let next = ref 0 in
      let rec go (s : Trace.span) =
        let k = !next in
        incr next;
        event buf first;
        Buffer.add_string buf {|{"ph":"X","pid":1,"tid":|};
        Json.add_int buf tid;
        Buffer.add_string buf {|,"ts":|};
        Json.add_fixed3 buf s.Trace.start_us;
        Buffer.add_string buf {|,"dur":|};
        Json.add_fixed3 buf (Float.max s.Trace.dur_us 0.001);
        Buffer.add_string buf {|,"name":|};
        add_quoted buf (Json.escape s.Trace.name);
        Buffer.add_string buf {|,"cat":|};
        add_quoted buf outcome;
        Buffer.add_string buf {|,"args":{"trace_id":"|};
        Json.add_hex64 buf t.Trace.trace_id;
        Buffer.add_string buf {|","span_id":"|};
        Json.add_hex64 buf (Trace.span_id ~trace_id:t.Trace.trace_id k);
        Buffer.add_string buf {|","tenant":|};
        Json.add_int buf t.Trace.tenant;
        Buffer.add_string buf {|,"window":|};
        Json.add_int buf t.Trace.window;
        Buffer.add_string buf {|,"shard":|};
        Json.add_int buf t.Trace.shard;
        Buffer.add_string buf {|,"count":|};
        Json.add_int buf t.Trace.count;
        Buffer.add_string buf "}}";
        List.iter go s.Trace.children
      in
      go t.Trace.root)
    traces;
  Buffer.add_string buf "\n], \"displayTimeUnit\": \"ms\"}\n"

let json_of_traces traces =
  let buf = Buffer.create 65536 in
  traces_to_buffer buf traces;
  Buffer.contents buf

let write_traces oc traces =
  let buf = Buffer.create 65536 in
  traces_to_buffer buf traces;
  Buffer.output_buffer oc buf
