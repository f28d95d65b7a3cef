open Flo_storage
open Flo_workloads
open Flo_engine
module A = Flo_analysis.Analyzer
module E = Flo_obs.Event

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkm = Alcotest.(check (array (array int)))

(* ---- Reuse: hand-computed stack distances ------------------------------ *)

let test_reuse_distances () =
  let r = Flo_analysis.Reuse.create () in
  let t block = Flo_analysis.Reuse.touch r ~file:0 ~block in
  let expect name want got =
    Alcotest.(check (option int)) name want got
  in
  (* stream: a b c a a b d c  (classic LRU stack-distance example) *)
  expect "a cold" None (t 0);
  expect "b cold" None (t 1);
  expect "c cold" None (t 2);
  expect "a after b,c" (Some 2) (t 0);
  expect "a immediate" (Some 0) (t 0);
  expect "b after c,a" (Some 2) (t 1);
  expect "d cold" None (t 3);
  expect "c after a,b,d" (Some 3) (t 2);
  check "touches" 8 (Flo_analysis.Reuse.touches r);
  check "cold" 4 (Flo_analysis.Reuse.cold_touches r);
  check "reuses" 4 (Flo_analysis.Reuse.reuses r);
  check "distinct" 4 (Flo_analysis.Reuse.distinct_blocks r);
  (* distances 0,2,2,3: an LRU cache of >= 4 blocks serves all four *)
  check "below capacity 4" 4 (Flo_analysis.Reuse.below r 4);
  check "below capacity 1" 1 (Flo_analysis.Reuse.below r 1);
  (* same index on a different file is a different block *)
  expect "file split" None (Flo_analysis.Reuse.touch r ~file:1 ~block:0);
  check "distinct after split" 5 (Flo_analysis.Reuse.distinct_blocks r)

(* ---- Sharing: hand-computed 2-thread / 1-shared-cache scenario --------- *)

let test_sharing_hand_example () =
  let s = Flo_analysis.Sharing.create () in
  let touch thread block hit = Flo_analysis.Sharing.touch s ~thread ~file:0 ~block ~hit in
  let evict thread block = Flo_analysis.Sharing.evict s ~thread ~file:0 ~block in
  (* two threads over blocks {0,1,2}; cache holds 2 *)
  touch 0 0 false;                      (* t0 pulls b0 *)
  touch 1 0 true;                       (* t1 reuses it: b0 is shared *)
  touch 0 1 false;                      (* t0 pulls b1 *)
  evict 0 0;                            (* ... evicting b0 *)
  touch 1 0 false;                      (* t1 re-misses b0: conflict 0 -> 1 *)
  evict 1 1;                            (* b1 leaves while serving t1 *)
  touch 1 2 false;                      (* t1 pulls b2 (t1-private) *)
  touch 0 1 false;                      (* t0 re-misses b1: conflict 1 -> 0 *)
  evict 0 2;
  touch 0 2 true;                       (* HIT after evict: re-installed, no conflict *)
  check "threads" 2 (Flo_analysis.Sharing.threads s);
  check "touches" 7 (Flo_analysis.Sharing.touches s);
  check "evictions" 3 (Flo_analysis.Sharing.evictions s);
  check "distinct blocks" 3 (Flo_analysis.Sharing.distinct_blocks s);
  (* t0 touched {0,1,2}, t1 touched {0,2}; both: {0,2} *)
  checkm "shared matrix" [| [| 3; 2 |]; [| 2; 2 |] |] (Flo_analysis.Sharing.shared s);
  checkm "conflict matrix" [| [| 0; 1 |]; [| 1; 0 |] |] (Flo_analysis.Sharing.conflicts s);
  check "cross shared" 2 (Flo_analysis.Sharing.cross_shared s);
  check "shared blocks" 2 (Flo_analysis.Sharing.shared_blocks s);
  check "total conflicts" 2 (Flo_analysis.Sharing.total_conflicts s);
  Alcotest.(check (list int)) "active" [ 0; 1 ] (Flo_analysis.Sharing.active_threads s)

(* ---- Sharing: properties ----------------------------------------------- *)

(* op = (thread, block, Evict | Touch hit) over 4 threads x 10 blocks *)
let sharing_ops_arb =
  QCheck.list_of_size (QCheck.Gen.int_range 0 300)
    (QCheck.triple (QCheck.int_range 0 3) (QCheck.int_range 0 9)
       (QCheck.option QCheck.bool))

let build_sharing ops =
  let s = Flo_analysis.Sharing.create () in
  List.iter
    (fun (thread, block, op) ->
      match op with
      | None -> Flo_analysis.Sharing.evict s ~thread ~file:0 ~block
      | Some hit -> Flo_analysis.Sharing.touch s ~thread ~file:0 ~block ~hit)
    ops;
  s

let prop_sharing_matrix_laws =
  QCheck.Test.make ~name:"sharing matrix symmetric, diagonal = distinct counts"
    ~count:200 sharing_ops_arb (fun ops ->
      let s = build_sharing ops in
      let m = Flo_analysis.Sharing.shared s in
      let n = Array.length m in
      let sym = ref true and diag = ref true and cross = ref 0 in
      for i = 0 to n - 1 do
        if m.(i).(i) <> Flo_analysis.Sharing.distinct_of s ~thread:i then diag := false;
        for j = 0 to n - 1 do
          if m.(i).(j) <> m.(j).(i) then sym := false;
          if i < j then cross := !cross + m.(i).(j)
        done
      done;
      let c = Flo_analysis.Sharing.conflicts s in
      let conflict_ok = ref true and total = ref 0 in
      Array.iteri
        (fun i row ->
          if row.(i) <> 0 then conflict_ok := false;  (* never self-conflict *)
          Array.iter (fun v -> total := !total + v) row)
        c;
      !sym && !diag
      && !cross = Flo_analysis.Sharing.cross_shared s
      && !conflict_ok
      && !total = Flo_analysis.Sharing.total_conflicts s
      && !total <= Flo_analysis.Sharing.evictions s
      && Flo_analysis.Sharing.shared_blocks s <= Flo_analysis.Sharing.distinct_blocks s)

(* Locality's counts against a from-scratch recount of the same touches;
   small ranges so blocks repeat within and across threads *)
let prop_locality_counting_law =
  QCheck.Test.make ~name:"locality counts = recount of the touches" ~count:300
    QCheck.(small_list (triple (int_bound 3) (int_bound 2) (int_bound 5)))
    (fun touches ->
      let module L = Flo_analysis.Locality in
      let l = L.create () in
      List.iter (fun (thread, file, block) -> L.touch l ~thread ~file ~block) touches;
      let triples = List.sort_uniq compare touches in
      let pairs = List.sort_uniq compare (List.map (fun (t, f, _) -> (t, f)) triples) in
      let count p = List.length (List.filter p triples) in
      let blocks = List.sort_uniq compare (List.map (fun (_, f, b) -> (f, b)) triples) in
      let degree (f, b) = count (fun (_, f', b') -> f = f' && b = b') in
      let per_thread =
        List.sort_uniq compare (List.map fst pairs)
        |> List.map (fun th ->
               ( th,
                 List.filter_map
                   (fun (t, f) ->
                     if t = th then Some (f, count (fun (t', f', _) -> t' = t && f' = f))
                     else None)
                   pairs ))
      in
      L.requests l = List.length touches
      && List.for_all
           (fun (t, f) ->
             L.distinct l ~thread:t ~file:f = count (fun (t', f', _) -> t' = t && f' = f))
           (List.concat_map (fun t -> List.init 4 (fun f -> (t, f))) [ 0; 1; 2; 3; 4 ])
      && L.per_thread l = per_thread
      && L.distinct_blocks l = List.length blocks
      && L.shared_blocks l = List.length (List.filter (fun b -> degree b >= 2) blocks)
      && L.cross_pairs l
         = List.fold_left (fun acc b -> acc + (degree b * (degree b - 1) / 2)) 0 blocks)

(* ---- Golden trace fixture: exact values -------------------------------- *)

(* data/golden_trace.jsonl is a hand-written 9-request trace: 2 threads over
   file 0 blocks {0..3}, one L1 (cap 2) and one L2 (cap 3).  Every number
   below is derived by hand in the fixture's construction. *)
let load_golden () =
  (* cwd is [_build/default/test] under [dune runtest], the workspace root
     under [dune exec test/main.exe] *)
  let path =
    if Sys.file_exists "data/golden_trace.jsonl" then "data/golden_trace.jsonl"
    else "test/data/golden_trace.jsonl"
  in
  match A.load_file ~keep_events:true path with
  | Ok a -> a
  | Error e ->
    Alcotest.failf "golden trace did not parse: %s" (A.load_error_to_string e)

let l1_0 = { A.layer = E.L1; node = 0 }
let l2_0 = { A.layer = E.L2; node = 0 }

let test_golden_trace_headline () =
  let a = load_golden () in
  check "events" 39 (A.event_count a);
  check "requests" 9 (A.kind_count a E.Access);
  check "l1+l2 hits" 4 (A.kind_count a E.Hit);
  check "l1+l2 misses" 13 (A.kind_count a E.Miss);
  check "evictions" 8 (A.kind_count a E.Evict);
  check "disk reads" 5 (A.kind_count a E.Disk_read);
  Alcotest.(check (float 1e-9)) "disk time" 25000. (A.total_disk_us a);
  let lo, hi = A.time_span a in
  Alcotest.(check (pair (float 1e-9) (float 1e-9))) "span" (0., 450.) (lo, hi);
  Alcotest.(check (list string)) "caches" [ "l1/0"; "l2/0" ]
    (List.map A.cache_name (A.caches a))

let test_golden_trace_reuse () =
  let a = load_golden () in
  let r1 = Option.get (A.reuse_of a l1_0) in
  (* L1 stream: 0 0 1 2 0 1 2 3 0 -> distances -,0,-,-,2,2,2,-,3 *)
  check "l1 touches" 9 (Flo_analysis.Reuse.touches r1);
  check "l1 cold" 4 (Flo_analysis.Reuse.cold_touches r1);
  check "l1 reuses" 5 (Flo_analysis.Reuse.reuses r1);
  check "l1 distinct" 4 (Flo_analysis.Reuse.distinct_blocks r1);
  Alcotest.(check (float 1e-9)) "l1 distance sum" 9.
    (Flo_obs.Histogram.sum (Flo_analysis.Reuse.histogram r1));
  Alcotest.(check (float 1e-9)) "l1 distance max" 3.
    (Flo_obs.Histogram.max_value (Flo_analysis.Reuse.histogram r1));
  let r2 = Option.get (A.reuse_of a l2_0) in
  (* L2 stream: 0 1 2 0 1 2 3 0 -> distances -,-,-,2,2,2,-,3 *)
  check "l2 touches" 8 (Flo_analysis.Reuse.touches r2);
  check "l2 cold" 4 (Flo_analysis.Reuse.cold_touches r2);
  check "l2 reuses" 4 (Flo_analysis.Reuse.reuses r2);
  Alcotest.(check (float 1e-9)) "l2 distance sum" 9.
    (Flo_obs.Histogram.sum (Flo_analysis.Reuse.histogram r2))

let test_golden_trace_sharing () =
  let a = load_golden () in
  let s1 = Option.get (A.sharing_of a l1_0) in
  (* t0 touched {0,1,3}, t1 touched {0,2}: only b0 is co-touched *)
  checkm "l1 shared" [| [| 3; 1 |]; [| 1; 2 |] |] (Flo_analysis.Sharing.shared s1);
  (* t1's evict of b0 re-missed by t0 (and vice versa) *)
  checkm "l1 conflicts" [| [| 0; 1 |]; [| 1; 0 |] |] (Flo_analysis.Sharing.conflicts s1);
  check "l1 evictions" 6 (Flo_analysis.Sharing.evictions s1);
  check "l1 cross" 1 (Flo_analysis.Sharing.cross_shared s1);
  let s2 = Option.get (A.sharing_of a l2_0) in
  checkm "l2 shared" [| [| 3; 1 |]; [| 1; 2 |] |] (Flo_analysis.Sharing.shared s2);
  (* t0 evicted b0 from L2; t1's final request re-missed it *)
  checkm "l2 conflicts" [| [| 0; 1 |]; [| 0; 0 |] |] (Flo_analysis.Sharing.conflicts s2);
  check "l2 evictions" 2 (Flo_analysis.Sharing.evictions s2);
  check "layer cross l1" 1 (A.cross_shared_at a E.L1);
  check "layer cross l2" 1 (A.cross_shared_at a E.L2);
  check "layer conflicts l1" 2 (A.conflicts_at a E.L1);
  check "layer conflicts l2" 1 (A.conflicts_at a E.L2)

let test_golden_trace_locality () =
  let a = load_golden () in
  let l = A.locality a in
  check "requests" 9 (Flo_analysis.Locality.requests l);
  check "threads" 2 (Flo_analysis.Locality.threads l);
  Alcotest.(check (list int)) "files" [ 0 ] (Flo_analysis.Locality.files l);
  check "t0 distinct" 3 (Flo_analysis.Locality.distinct l ~thread:0 ~file:0);
  check "t1 distinct" 2 (Flo_analysis.Locality.distinct l ~thread:1 ~file:0);
  check "t0 total" 3 (Flo_analysis.Locality.total_distinct l ~thread:0)

(* ---- Live analysis vs. Run counters ------------------------------------ *)

let small_app =
  let d = Flo_poly.Data_space.make [| 64; 64 |] in
  let space = Flo_poly.Iter_space.make [| (0, 63); (0, 63) |] in
  App.make ~name:"toy" ~description:"column sweep" ~group:App.High
    (Flo_poly.Program.make ~name:"toy"
       [ Flo_poly.Program.declare ~id:0 ~name:"a" d; Flo_poly.Program.declare ~id:1 ~name:"b" d ]
       [
         Flo_poly.Loop_nest.make ~weight:2 ~parallel_dim:0 space
           [ Flo_poly.Access.ji ~array_id:0; Flo_poly.Access.ij ~array_id:1 ];
       ])

(* the Fig. 6 shape of test_engine, but with 32-element blocks so the two
   threads of one column pair touch overlapping block sets *)
let fig6_config =
  Config.with_topology Config.default
    (Topology.make ~compute_nodes:4 ~io_nodes:2 ~storage_nodes:1 ~block_elems:32
       ~io_cache_blocks:4 ~storage_cache_blocks:16 ())

let analyzed_run ?keep_events layouts =
  let a = A.create ?keep_events () in
  let mapping = Experiment.random_mapping ~seed:1 fig6_config in
  let r =
    Run.run ~mapping ~readahead:2 ~sink:(A.sink a) ~config:fig6_config ~layouts
      small_app
  in
  (a, r)

let test_live_analysis_matches_run () =
  let a, r = analyzed_run (Experiment.default_layouts small_app) in
  check "requests" r.Run.block_requests
    (Flo_analysis.Locality.requests (A.locality a));
  check "access events" r.Run.block_requests (A.kind_count a E.Access);
  check "hits" (r.Run.l1.Stats.hits + r.Run.l2.Stats.hits) (A.kind_count a E.Hit);
  check "misses" (r.Run.l1.Stats.misses + r.Run.l2.Stats.misses)
    (A.kind_count a E.Miss);
  check "disk reads" r.Run.disk_reads (A.kind_count a E.Disk_read);
  check "threads" (Array.length r.Run.thread_us)
    (Flo_analysis.Locality.threads (A.locality a));
  (* every L1 touch is a lookup: reuse streams cover hits + misses *)
  let l1_touches =
    List.fold_left
      (fun acc c ->
        if c.A.layer = E.L1 then
          acc + Flo_analysis.Reuse.touches (Option.get (A.reuse_of a c))
        else acc)
      0 (A.caches a)
  in
  check "l1 reuse stream complete" r.Run.l1.Stats.accesses l1_touches

(* ---- Offline load_file agrees with the live sink ----------------------- *)

let test_offline_equals_live () =
  let live, _ = analyzed_run (Experiment.default_layouts small_app) in
  let path = Filename.temp_file "flopt_analysis" ".jsonl" in
  let mapping = Experiment.random_mapping ~seed:1 fig6_config in
  ignore
    (Flo_obs.Sink.with_jsonl path (fun sink ->
         Run.run ~mapping ~readahead:2 ~sink ~config:fig6_config
           ~layouts:(Experiment.default_layouts small_app) small_app));
  let off =
    match A.load_file path with
    | Ok a -> a
    | Error e -> Alcotest.failf "trace did not parse: %s" (A.load_error_to_string e)
  in
  Sys.remove path;
  check "events" (A.event_count live) (A.event_count off);
  List.iter
    (fun k -> check "kind count" (A.kind_count live k) (A.kind_count off k))
    [ E.Access; E.Hit; E.Miss; E.Evict; E.Demote; E.Prefetch; E.Disk_read ];
  List.iter
    (fun layer ->
      check "cross shared" (A.cross_shared_at live layer) (A.cross_shared_at off layer);
      check "conflicts" (A.conflicts_at live layer) (A.conflicts_at off layer);
      Alcotest.(check (array int)) "reuse histogram"
        (Flo_obs.Histogram.counts (A.reuse_histogram_at live layer))
        (Flo_obs.Histogram.counts (A.reuse_histogram_at off layer)))
    [ E.L1; E.L2 ];
  Alcotest.(check (list (pair int (list (pair int int))))) "locality"
    (Flo_analysis.Locality.per_thread (A.locality live))
    (Flo_analysis.Locality.per_thread (A.locality off))

(* ---- The acceptance shape: optimized layout shares less ---------------- *)

let test_optimized_layout_shares_less () =
  let d, _ = analyzed_run (Experiment.default_layouts small_app) in
  let o, _ = analyzed_run (Experiment.inter_layouts fig6_config small_app) in
  let dc = A.cross_shared_at d E.L2 and oc = A.cross_shared_at o E.L2 in
  checkb
    (Printf.sprintf "optimized cross-thread sharing %d < default %d" oc dc)
    true (oc < dc);
  checkb "default sharing nonzero" true (dc > 0);
  checkb "optimized conflicts no worse" true
    (A.conflicts_at o E.L2 <= A.conflicts_at d E.L2)

(* ---- Golden regression: the analyze report ----------------------------- *)

let render_fig6_analysis () =
  let d, _ = analyzed_run (Experiment.default_layouts small_app) in
  let o, _ = analyzed_run (Experiment.inter_layouts fig6_config small_app) in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "==== default layouts ====\n\n";
  Buffer.add_string buf (Report.analysis_summary d);
  Buffer.add_string buf "==== optimized (inter-node) layouts ====\n\n";
  Buffer.add_string buf (Report.analysis_summary o);
  Buffer.add_string buf
    (Printf.sprintf
       "==== delta ====\n\nL2 cross-thread shared: %d -> %d\nL2 conflicts: %d -> %d\n"
       (A.cross_shared_at d E.L2) (A.cross_shared_at o E.L2)
       (A.conflicts_at d E.L2) (A.conflicts_at o E.L2));
  Buffer.contents buf

(* regenerate with:
   FLOPT_GOLDEN_UPDATE=$PWD/test dune exec test/main.exe -- test analysis -q *)
let test_fig6_golden_analysis () =
  let actual = render_fig6_analysis () in
  let path =
    if Sys.file_exists "golden_fig6_analysis.expected" then
      "golden_fig6_analysis.expected"
    else "test/golden_fig6_analysis.expected"
  in
  match Sys.getenv_opt "FLOPT_GOLDEN_UPDATE" with
  | Some dir ->
    let oc = open_out_bin (Filename.concat dir path) in
    output_string oc actual;
    close_out oc
  | None ->
    let expected =
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    in
    Alcotest.(check string) "analysis matches golden file" expected actual

(* ---- Perfetto export ---------------------------------------------------- *)

let count_sub hay needle =
  let n = String.length needle and h = String.length hay in
  let c = ref 0 in
  for i = 0 to h - n do
    if String.sub hay i n = needle then incr c
  done;
  !c

let test_perfetto_export () =
  let a = load_golden () in
  let json = String.trim (Flo_analysis.Perfetto.json_of_events (A.events a)) in
  checkb "object" true
    (String.length json > 2 && json.[0] = '{' && json.[String.length json - 1] = '}');
  check "balanced braces" (count_sub json "{") (count_sub json "}");
  check "balanced brackets" (count_sub json "[") (count_sub json "]");
  (* one complete slice per block request *)
  check "slices" 9 (count_sub json {|"ph":"X"|});
  (* instants: evictions + disk reads on the cache tracks *)
  check "instants" 13 (count_sub json {|"ph":"i"|});
  checkb "thread names" true (count_sub json {|"thread_name"|} >= 2);
  checkb "hit color present" true (count_sub json {|"cname":"good"|} >= 1);
  checkb "disk color present" true (count_sub json {|"cname":"terrible"|} >= 1);
  check "traceEvents key" 1 (count_sub json {|"traceEvents"|})

let test_analyzer_error_reporting () =
  let path = Filename.temp_file "flopt_bad" ".jsonl" in
  let oc = open_out path in
  output_string oc (E.to_json (E.make ~time_us:1. ~kind:E.Access ~layer:E.L1 ~node:0
                                 ~thread:0 ~file:0 ~block:0 ()) ^ "\n");
  output_string oc "\n";                  (* blank lines are fine *)
  output_string oc "{\"nope\"\n";
  close_out oc;
  (match A.load_file path with
  | Ok _ -> Alcotest.fail "malformed line accepted"
  | Error (A.Malformed { line; _ }) -> check "line number reported" 3 line
  | Error (A.Io msg) -> Alcotest.failf "expected Malformed, got Io: %s" msg);
  Sys.remove path;
  (* a directory opens but cannot be read: an I/O error, not an exception *)
  match A.load_file (Filename.dirname path) with
  | Error (A.Io _) -> ()
  | Ok _ | Error (A.Malformed _) -> Alcotest.fail "directory loaded as a trace"

let qsuite =
  List.map QCheck_alcotest.to_alcotest [ prop_sharing_matrix_laws; prop_locality_counting_law ]

let suite =
  [
    ("reuse stack distances", `Quick, test_reuse_distances);
    ("sharing hand example", `Quick, test_sharing_hand_example);
    ("golden trace: headline", `Quick, test_golden_trace_headline);
    ("golden trace: reuse", `Quick, test_golden_trace_reuse);
    ("golden trace: sharing + conflicts", `Quick, test_golden_trace_sharing);
    ("golden trace: locality", `Quick, test_golden_trace_locality);
    ("live analysis matches run counters", `Quick, test_live_analysis_matches_run);
    ("offline load equals live sink", `Quick, test_offline_equals_live);
    ("optimized layout shares less (Fig. 6)", `Quick, test_optimized_layout_shares_less);
    ("fig. 6 golden analysis report", `Quick, test_fig6_golden_analysis);
    ("perfetto export well-formed", `Quick, test_perfetto_export);
    ("malformed trace line reported", `Quick, test_analyzer_error_reporting);
  ]
  @ qsuite

(* ---- perfetto edge shapes ------------------------------------------------ *)

module J = Flo_obs.Json

let test_perfetto_empty_trace () =
  (* no events must still yield a well-formed document with an (empty or
     metadata-only) traceEvents list, not a parse error or truncation *)
  let doc = J.parse (Flo_analysis.Perfetto.json_of_events []) in
  match J.member "traceEvents" doc with
  | Some (J.Arr items) ->
    checkb "no duration slices for an empty trace" true
      (List.for_all
         (fun item ->
           match J.member "ph" item with
           | Some (J.Str ph) -> ph = "M" (* metadata records only *)
           | _ -> false)
         items)
  | _ -> Alcotest.fail "traceEvents missing or not a list"

let test_perfetto_single_event () =
  let ev =
    E.make ~time_us:5. ~kind:E.Access ~layer:E.L1 ~node:0 ~thread:3 ~file:1
      ~block:7 ~latency_us:2.5 ()
  in
  let doc = J.parse (Flo_analysis.Perfetto.json_of_events [ ev ]) in
  match J.member "traceEvents" doc with
  | Some (J.Arr items) ->
    let slices =
      List.filter
        (fun item ->
          match J.member "ph" item with Some (J.Str "X") -> true | _ -> false)
        items
    in
    check "exactly one slice" 1 (List.length slices);
    (match J.member "ts" (List.hd slices) with
    | Some (J.Num ts) -> checkb "timestamp preserved" true (ts = 5.)
    | _ -> Alcotest.fail "slice has no ts")
  | _ -> Alcotest.fail "traceEvents missing or not a list"

(* byte-identity gate: the Perfetto export of the golden fixture is pinned
   by digest *)
let test_perfetto_golden_digest () =
  let events = A.events (load_golden ()) in
  Alcotest.(check string) "perfetto export md5" "02b64f28517305f495a6391434711663"
    (Digest.to_hex (Digest.string (Flo_analysis.Perfetto.json_of_events events)))

let test_bad_trace_fixture () =
  (* the checked-in fixture behind `flopt analyze` exit-code behavior: line 3
     is the malformed one (line 2 is blank and must be skipped, not counted
     as an error) *)
  let path =
    if Sys.file_exists "data/bad_trace.jsonl" then "data/bad_trace.jsonl"
    else "test/data/bad_trace.jsonl"
  in
  match A.load_file path with
  | Ok _ -> Alcotest.fail "bad fixture accepted"
  | Error (A.Malformed { line; msg }) ->
    check "offending line" 3 line;
    checkb "message not empty" true (String.length msg > 0)
  | Error (A.Io msg) -> Alcotest.failf "expected Malformed, got Io: %s" msg

let suite =
  suite
  @ [
      ("perfetto: empty trace", `Quick, test_perfetto_empty_trace);
      ("perfetto: single event", `Quick, test_perfetto_single_event);
      ("bad-trace fixture reports line 3", `Quick, test_bad_trace_fixture);
      ("perfetto golden export digest", `Quick, test_perfetto_golden_digest);
    ]
