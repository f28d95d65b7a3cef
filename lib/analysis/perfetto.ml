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

let cache_label (layer : Event.layer) node =
  Printf.sprintf "%s/%d" (Event.layer_to_string layer) node

let emit_json buf first fmt =
  if !first then first := false else Buffer.add_char buf ',';
  Buffer.add_string buf "\n  ";
  Printf.ksprintf (Buffer.add_string buf) fmt

let to_buffer buf events =
  Buffer.add_string buf "{\"traceEvents\": [";
  let first = ref true in
  emit_json buf first
    {|{"ph":"M","pid":1,"name":"process_name","args":{"name":"requests"}}|};
  emit_json buf first
    {|{"ph":"M","pid":2,"name":"process_name","args":{"name":"caches"}}|};
  let threads_seen = Hashtbl.create 16 in
  let cache_tids = Hashtbl.create 16 in
  let next_cache_tid = ref 0 in
  let cache_tid layer node =
    let key = cache_label layer node in
    match Hashtbl.find_opt cache_tids key with
    | Some tid -> tid
    | None ->
      let tid = !next_cache_tid in
      incr next_cache_tid;
      Hashtbl.add cache_tids key tid;
      emit_json buf first
        {|{"ph":"M","pid":2,"tid":%d,"name":"thread_name","args":{"name":"%s"}}|} tid key;
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
    let trace_id = Flo_obs.Trace.mint_id ~seed:0 ~stream:thread seq in
    let dur = Float.max (end_us -. r.start_us) 0.001 in
    emit_json buf first
      {|{"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"name":"f%d:b%d","cat":"%s","cname":"%s","args":{"file":%d,"block":%d,"outcome":"%s","trace_id":"%s","span_id":"%s"%s}}|}
      thread r.start_us dur r.file r.block (outcome_name r.outcome)
      (outcome_cname r.outcome) r.file r.block (outcome_name r.outcome)
      (Flo_obs.Trace.id_to_string trace_id)
      (Flo_obs.Trace.id_to_string (Flo_obs.Trace.span_id ~trace_id 0))
      (if r.disk_us > 0. then Printf.sprintf {|,"disk_us":%.3f|} r.disk_us else "")
  in
  let instant (e : Event.t) verb =
    emit_json buf first
      {|{"ph":"i","pid":2,"tid":%d,"ts":%.3f,"name":"%s f%d:b%d","s":"t","args":{"thread":%d}}|}
      (cache_tid e.Event.layer e.Event.node)
      e.Event.time_us verb e.Event.file e.Event.block e.Event.thread
  in
  List.iter
    (fun (e : Event.t) ->
      let thread = e.Event.thread in
      if not (Hashtbl.mem threads_seen thread) then begin
        Hashtbl.add threads_seen thread ();
        emit_json buf first
          {|{"ph":"M","pid":1,"tid":%d,"name":"thread_name","args":{"name":"thread %d"}}|}
          thread thread
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
  emit_json buf first
    {|{"ph":"M","pid":1,"name":"process_name","args":{"name":"sampled traces"}}|};
  List.iteri
    (fun tid (t : Trace.t) ->
      emit_json buf first
        {|{"ph":"M","pid":1,"tid":%d,"name":"thread_name","args":{"name":"%s tenant=%d %s"}}|}
        tid (Trace.id_to_string t.Trace.trace_id) t.Trace.tenant
        (Json.escape t.Trace.outcome);
      let next = ref 0 in
      let rec go (s : Trace.span) =
        let k = !next in
        incr next;
        emit_json buf first
          {|{"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"name":"%s","cat":"%s","args":{"trace_id":"%s","span_id":"%s","tenant":%d,"window":%d,"shard":%d,"count":%d}}|}
          tid s.Trace.start_us
          (Float.max s.Trace.dur_us 0.001)
          (Json.escape s.Trace.name) (Json.escape t.Trace.outcome)
          (Trace.id_to_string t.Trace.trace_id)
          (Trace.id_to_string (Trace.span_id ~trace_id:t.Trace.trace_id k))
          t.Trace.tenant t.Trace.window t.Trace.shard t.Trace.count;
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
