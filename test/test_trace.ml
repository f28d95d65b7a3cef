(* Request-level sampled tracing: trace and span ids pinned to known
   splitmix64 draws, trace/event JSON round-trips, the exemplar keep-max
   law, jobs equivalence of whole trace files, tail-sampling completeness
   under a fault storm, and the zero-overhead-when-off guarantee (tracing
   must never move a modeled number). *)

open Flo_traffic
module Trace = Flo_obs.Trace
module Histogram = Flo_obs.Histogram

let checkb = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* the first position >= [i] where [needle] starts in [hay], or -1; it
   compares in place and allocates nothing *)
let find_from hay i needle =
  let n = String.length needle and h = String.length hay in
  let rec matches j k = k = n || (hay.[j + k] = needle.[k] && matches j (k + 1)) in
  let rec go j = if j + n > h then -1 else if matches j 0 then j else go (j + 1) in
  go i

let has_needle hay needle = find_from hay 0 needle >= 0
let test_jobs = Test_parallel.test_jobs
let small_config = Test_parallel.small_config ~block_elems:16 ~threads:8
let toy_mix = [ Test_parallel.toy_col; Test_parallel.toy_row ]

let storm_plan =
  match
    Flo_faults.Fault_plan.of_string
      "read-error:rate=0.2;latency:rate=0.3,mult=6;retry:max=2,timeout=400"
  with
  | Ok p -> Flo_faults.Fault_plan.with_seed p 7
  | Error msg -> failwith msg

let traced_params ?(sample_rate = 4) ?(breach_us = 1e6) ?(faults = storm_plan)
    () =
  {
    (Engine.default_params ~mix:toy_mix) with
    Engine.tenants = 8;
    duration_s = 2.;
    rate = 1.5;
    sample = 1;
    windows = 4;
    faults;
    trace = Some { Tracer.sample_rate; breach_us };
  }

let simulate ?(jobs = 1) params =
  Engine.simulate ~jobs ~config:small_config params

(* ---- id minting -------------------------------------------------------- *)

(* trace and span ids are splitmix64 draws (Prng.at, Prng.nth); pinning a
   few by value names the function that moved, where the goldens' digests
   only say that some byte did *)
let test_ids_pinned () =
  List.iter
    (fun (seed, stream, k, id, span3) ->
      let name = Printf.sprintf "seed=%d stream=%d k=%d" seed stream k in
      checkb ("trace id " ^ name) true (Flo_faults.Prng.at ~seed ~stream k = id);
      checkb ("span id 3 " ^ name) true (Trace.span_id ~trace_id:id 3 = span3))
    [
      (0, 0, 0, 0xf4a90164c4749e1aL, 0x1068e219618381c1L);
      (42, 3, 7, 0xbcd853c72b286c70L, 0xfc5718137f57813dL);
      (7, 1024, 64, 0x207a8ffa2c321409L, 0x1875d409ebd7e69dL);
      (123456789, 17, 1, 0x09a5cef38789564dL, 0x6ca62bd9a50aa3e5L);
    ]

let test_id_string_roundtrip () =
  List.iter
    (fun id ->
      let s = Trace.id_to_string id in
      check_int "16 hex digits" 16 (String.length s);
      checkb "id_of_string inverts" true (Trace.id_of_string s = Some id))
    [ 0L; 1L; -1L; Int64.min_int; Int64.max_int; Flo_faults.Prng.at ~seed:1 ~stream:2 3 ];
  List.iter
    (fun bad -> checkb bad true (Trace.id_of_string bad = None))
    [ ""; "123"; "xyzxyzxyzxyzxyzx"; "00000000000000000" ]

(* ---- JSON round-trips -------------------------------------------------- *)

let sample_trace =
  let leaf name start_us dur_us = Trace.span ~name ~start_us ~dur_us () in
  Trace.make ~trace_id:0x00ffee11aa55cc01L ~tenant:3 ~app:"bt \"q\"" ~window:2
    ~shard:1 ~outcome:"timeout" ~latency_us:1234.5 ~count:7
    ~reasons:[ Trace.Fault_path; Trace.Breach; Trace.Fault_path ]
    ~root:
      (Trace.span ~name:"request" ~start_us:10. ~dur_us:1234.5
         ~children:
           [
             leaf "queue.congestion" 10. 1000.;
             Trace.span ~name:"service" ~start_us:1010. ~dur_us:234.5
               ~children:[ leaf "l1.miss" 1010. 25.; leaf "disk.timeout" 1035. 0. ]
               ();
           ]
         ())

let test_trace_json_roundtrip () =
  match Trace.of_json (Trace.to_json sample_trace) with
  | Error msg -> Alcotest.failf "round-trip failed: %s" msg
  | Ok t ->
    checkb "structural equality" true (t = sample_trace);
    (* make sorted and deduplicated the reasons *)
    checkb "reasons normalized" true (t.Trace.reasons = [ Trace.Breach; Trace.Fault_path ]);
    check_int "span_count" 5 (Trace.span_count t)

let test_trace_json_forward_compat () =
  (* unknown reasons drop; unknown trailing fields are ignored *)
  let line =
    {|{"trace_id":"000000000000002a","tenant":1,"app":"x","window":0,"shard":0,"outcome":"ok","lat_us":5.0,"count":1,"reasons":["head","flux_capacitor"],"root":{"name":"request","t_us":0.0,"dur_us":5.0},"future_field":[1,{"a":"b"}]}|}
  in
  (match Trace.of_json line with
  | Error msg -> Alcotest.failf "forward-compat parse failed: %s" msg
  | Ok t ->
    checkb "unknown reason dropped" true (t.Trace.reasons = [ Trace.Head ]);
    checkb "id parsed" true (t.Trace.trace_id = 42L));
  (* but reasons must not end up empty *)
  let only_unknown =
    {|{"trace_id":"000000000000002a","tenant":1,"app":"x","window":0,"shard":0,"outcome":"ok","lat_us":5.0,"count":1,"reasons":["flux_capacitor"],"root":{"name":"request","t_us":0.0,"dur_us":5.0}}|}
  in
  checkb "all-unknown reasons rejected" true
    (Result.is_error (Trace.of_json only_unknown))

let test_trace_json_rejects_deep_nesting () =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    {|{"trace_id":"0000000000000001","tenant":0,"app":"x","window":0,"shard":0,"outcome":"ok","lat_us":1.0,"count":1,"reasons":["head"],"root":|};
  for _ = 1 to 80 do
    Buffer.add_string b {|{"name":"s","t_us":0.0,"dur_us":1.0,"children":[|}
  done;
  Buffer.add_string b {|{"name":"s","t_us":0.0,"dur_us":1.0}|};
  for _ = 1 to 80 do
    Buffer.add_string b "]}"
  done;
  Buffer.add_string b "}";
  checkb "depth-bomb rejected" true (Result.is_error (Trace.of_json (Buffer.contents b)))

let test_event_other_roundtrip () =
  let line =
    {|{"t_us":1.5,"kind":"zstd_compact","layer":"l2","node":3,"thread":2,"file":4,"block":9,"lat_us":0.25}|}
  in
  match Flo_obs.Event.of_json line with
  | Error msg -> Alcotest.failf "unknown kind should parse: %s" msg
  | Ok e ->
    checkb "kind is Other" true (e.Flo_obs.Event.kind = Flo_obs.Event.Other "zstd_compact");
    (* and it survives a second trip through the wire format *)
    (match Flo_obs.Event.of_json (Flo_obs.Event.to_json e) with
    | Ok e2 -> checkb "Other round-trips" true (e2 = e)
    | Error msg -> Alcotest.failf "re-parse failed: %s" msg);
    (* the analyzer treats it as an opaque record rather than crashing *)
    let a = Flo_analysis.Analyzer.create () in
    Flo_analysis.Analyzer.feed a e

(* ---- exemplars --------------------------------------------------------- *)

let exemplar_arb =
  QCheck.make
    ~print:(fun l ->
      String.concat ";"
        (List.map (fun (v, id) -> Printf.sprintf "(%g,%Ld)" v id) l))
    QCheck.Gen.(
      small_list (pair (oneofl [ 1.; 5.; 40.; 300.; 2500. ]) (map Int64.of_int (int_bound 6))))

(* keep-max law: a bucket's exemplars are exactly the top-cap entries of
   everything ever offered to it, ordered by (value desc, id asc), dedup *)
let prop_exemplar_keep_max =
  QCheck.Test.make ~count:200 ~name:"exemplars: keep-max law per bucket"
    exemplar_arb (fun adds ->
      let cap = 2 in
      let h = Histogram.create () in
      List.iter
        (fun (value, trace_id) -> Histogram.add_exemplar ~cap h ~value ~trace_id)
        adds;
      List.for_all
        (fun bucket ->
          let expected =
            List.filter (fun (v, _) -> Histogram.value_index h v = bucket) adds
            |> List.sort_uniq (fun (v1, i1) (v2, i2) ->
                   match compare v2 v1 with 0 -> compare i1 i2 | c -> c)
            |> List.filteri (fun i _ -> i < cap)
            |> List.map (fun (value, trace_id) -> { Histogram.value; trace_id })
          in
          Histogram.exemplars_of_bucket h bucket = expected)
        (List.init (Histogram.bucket_count h) Fun.id))

let prop_exemplar_merge_commutes =
  QCheck.Test.make ~count:200
    ~name:"exemplars: merge = adding everything into one histogram"
    (QCheck.pair exemplar_arb exemplar_arb) (fun (xs, ys) ->
      let fill adds =
        let h = Histogram.create () in
        List.iter (fun (value, trace_id) -> Histogram.add_exemplar h ~value ~trace_id) adds;
        h
      in
      let merged_ab = Histogram.merge (fill xs) (fill ys) in
      let merged_ba = Histogram.merge (fill ys) (fill xs) in
      let direct = fill (xs @ ys) in
      let view h =
        List.init (Histogram.bucket_count h) (Histogram.exemplars_of_bucket h)
      in
      view merged_ab = view direct && view merged_ba = view direct)

let test_exemplar_validation () =
  let h = Histogram.create () in
  checkb "rejects NaN" true
    (match Histogram.add_exemplar h ~value:Float.nan ~trace_id:1L with
    | () -> false
    | exception Invalid_argument _ -> true);
  checkb "rejects cap < 1" true
    (match Histogram.add_exemplar ~cap:0 h ~value:1. ~trace_id:1L with
    | () -> false
    | exception Invalid_argument _ -> true);
  checkb "no exemplars yet" true (not (Histogram.has_exemplars h));
  Histogram.add_exemplar h ~value:10. ~trace_id:5L;
  checkb "has exemplars now" true (Histogram.has_exemplars h);
  (* exemplars_at falls back to a populated bucket even when the p-bucket
     itself holds none *)
  Histogram.add h 10.;
  Histogram.add_many h 1e6 99;
  checkb "p99 falls back to the populated bucket" true
    (Histogram.exemplars_at h ~p:0.99 = [ { Histogram.value = 10.; trace_id = 5L } ])

(* ---- engine integration ------------------------------------------------ *)

let render_traces (r : Engine.result) =
  String.concat "\n" (List.map Trace.to_json r.Engine.traces)

let prop_trace_jobs_equivalence =
  QCheck.Test.make ~count:6
    ~name:"tracing: trace file and report identical at --jobs 1 and --jobs N"
    QCheck.(
      make
        ~print:(fun (seed, rate, storm) ->
          Printf.sprintf "seed=%d sample_rate=%d storm=%b" seed rate storm)
        Gen.(
          let* seed = small_nat in
          let* rate = oneofl [ 1; 4; 1 lsl 16 ] in
          let* storm = bool in
          return (seed, rate, storm)))
    (fun (seed, rate, storm) ->
      let params =
        {
          (traced_params ~sample_rate:rate
             ~faults:(if storm then storm_plan else Flo_faults.Fault_plan.empty)
             ())
          with
          Engine.seed;
        }
      in
      let render jobs =
        let r = simulate ~jobs params in
        render_traces r ^ "\n" ^ Traffic_report.summary r
        ^ Traffic_report.verdict_line r
      in
      render 1 = render test_jobs)

(* tracing observes the replay, it never steers it: every modeled number in
   the report must be byte-identical with tracing on, off, and at any
   sampling rate *)
let test_zero_overhead_when_off () =
  let traced = traced_params () in
  let untraced = { traced with Engine.trace = None } in
  let report p =
    let r = simulate p in
    Traffic_report.summary r ^ Traffic_report.verdict_line r
  in
  let off = report untraced in
  checkb "untraced report has no exemplar line" true
    (not (has_needle off "exemplar"));
  (* verdict + all modeled tables: strip only the exemplar line from the
     traced report, everything else must match the untraced one exactly *)
  let on_lines =
    String.split_on_char '\n' (report traced)
    |> List.filter (fun l -> not (has_needle l "exemplar traces:"))
  in
  check_str "reports identical modulo the exemplar line" off
    (String.concat "\n" on_lines);
  (* raising the sampling rate must not move modeled numbers either *)
  let r_sparse = simulate (traced_params ~sample_rate:(1 lsl 16) ()) in
  let r_dense = simulate (traced_params ~sample_rate:1 ()) in
  check_str "verdict invariant under sampling rate"
    (Traffic_report.verdict_line r_sparse)
    (Traffic_report.verdict_line r_dense)

let test_tail_sampling_completeness () =
  (* exhaustive view: head-sample every request, so every faulty request is
     visible as a count=1 head trace *)
  let dense = simulate (traced_params ~sample_rate:1 ()) in
  (* sparse view: head sampling effectively off, only the tail sampler *)
  let sparse = simulate (traced_params ~sample_rate:(1 lsl 30) ()) in
  let is_faulty (t : Trace.t) = t.Trace.outcome <> "ok" in
  let tail_ids r =
    List.filter_map
      (fun (t : Trace.t) ->
        if List.mem Trace.Fault_path t.Trace.reasons then Some t.Trace.trace_id
        else None)
      r.Engine.traces
  in
  (* the storm actually produced faulty requests *)
  checkb "storm produced faulty traces" true
    (List.exists is_faulty dense.Engine.traces);
  (* tail sampling is head-rate independent: the same fault groups are kept
     whether head sampling is dense or off *)
  checkb "tail set independent of head rate" true
    (tail_ids dense = tail_ids sparse);
  (* completeness: every faulty request seen in the exhaustive view is
     covered by a tail-sampled group trace of the same (tenant, window) even
     with head sampling off *)
  let tail_groups =
    List.filter_map
      (fun (t : Trace.t) ->
        if List.mem Trace.Fault_path t.Trace.reasons then
          Some (t.Trace.tenant, t.Trace.window, t.Trace.outcome)
        else None)
      sparse.Engine.traces
  in
  List.iter
    (fun (t : Trace.t) ->
      if is_faulty t then
        checkb
          (Printf.sprintf "faulty request (tenant=%d window=%d %s) tail-sampled"
             t.Trace.tenant t.Trace.window t.Trace.outcome)
          true
          (List.mem (t.Trace.tenant, t.Trace.window, t.Trace.outcome) tail_groups))
    dense.Engine.traces;
  (* conservation under head-sample-everything: head traces stand for
     exactly one request each and cover the whole run *)
  let head_count =
    List.fold_left
      (fun acc (t : Trace.t) ->
        if List.mem Trace.Head t.Trace.reasons then acc + t.Trace.count else acc)
      0 dense.Engine.traces
  in
  check_int "head traces cover every modeled request at rate 1"
    dense.Engine.total_requests head_count

let test_exemplars_reach_report () =
  let r = simulate (traced_params ()) in
  checkb "aggregate histogram carries exemplars" true
    (Histogram.has_exemplars r.Engine.agg_hist);
  let summary = Traffic_report.summary r in
  checkb "report names exemplar traces" true
    (has_needle summary "exemplar traces:");
  (* every advertised exemplar id resolves to a trace in the file *)
  let ids =
    List.map (fun (e : Histogram.exemplar) -> e.Histogram.trace_id)
      (Histogram.exemplars_at r.Engine.agg_hist ~p:0.99)
  in
  checkb "p99 exemplars non-empty" true (ids <> []);
  List.iter
    (fun id ->
      checkb
        (Printf.sprintf "exemplar %s resolves" (Trace.id_to_string id))
        true
        (List.exists (fun (t : Trace.t) -> t.Trace.trace_id = id) r.Engine.traces))
    ids

(* ---- perfetto ---------------------------------------------------------- *)

let test_perfetto_traces_stable () =
  let r = simulate (traced_params ~sample_rate:64 ()) in
  let traces = r.Engine.traces in
  checkb "have traces to export" true (traces <> []);
  let a = Flo_analysis.Perfetto.json_of_traces traces in
  let b = Flo_analysis.Perfetto.json_of_traces traces in
  check_str "repeated export byte-identical" a b;
  (* slices carry the ids the CLI renders: one pass over the export
     collects every exported trace id, then each trace must be among them *)
  let key = {|"trace_id":"|} in
  let exported = Hashtbl.create 4096 in
  let rec collect i =
    let j = find_from a i key in
    if j >= 0 then begin
      let start = j + String.length key in
      let stop = String.index_from a start '"' in
      Hashtbl.replace exported (String.sub a start (stop - start)) ();
      collect (stop + 1)
    end
  in
  collect 0;
  List.iter
    (fun (t : Trace.t) ->
      let id = Trace.id_to_string t.Trace.trace_id in
      checkb (Printf.sprintf "trace_id %s exported" id) true (Hashtbl.mem exported id))
    traces;
  checkb "span ids exported" true (has_needle a {|"span_id":"|})

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_exemplar_keep_max;
      prop_exemplar_merge_commutes;
      prop_trace_jobs_equivalence;
    ]

let suite =
  [
    ("ids pinned to splitmix64 draws", `Quick, test_ids_pinned);
    ("id string round-trip", `Quick, test_id_string_roundtrip);
    ("trace JSON round-trip", `Quick, test_trace_json_roundtrip);
    ("trace JSON forward-compat", `Quick, test_trace_json_forward_compat);
    ("trace JSON depth bomb", `Quick, test_trace_json_rejects_deep_nesting);
    ("event Other round-trip", `Quick, test_event_other_roundtrip);
    ("exemplar validation and fallback", `Quick, test_exemplar_validation);
    ("zero overhead when off", `Quick, test_zero_overhead_when_off);
    ("tail-sampling completeness", `Quick, test_tail_sampling_completeness);
    ("exemplars reach the report", `Quick, test_exemplars_reach_report);
    ("perfetto trace export stable", `Quick, test_perfetto_traces_stable);
  ]
  @ qsuite
