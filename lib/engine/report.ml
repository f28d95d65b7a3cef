let table ~header rows =
  let all = header :: rows in
  let cols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let width c =
    List.fold_left
      (fun acc r -> max acc (try String.length (List.nth r c) with _ -> 0))
      0 all
  in
  let widths = List.init cols width in
  let render_row r =
    String.concat "  "
      (List.mapi
         (fun c w ->
           let cell = try List.nth r c with _ -> "" in
           let pad = w - String.length cell in
           if c = 0 then cell ^ String.make pad ' ' else String.make pad ' ' ^ cell)
         widths)
  in
  let sep = String.make (List.fold_left ( + ) (2 * (cols - 1)) widths) '-' in
  String.concat "\n" (render_row header :: sep :: List.map render_row rows)

let print_table ~title ~header rows =
  print_endline ("== " ^ title ^ " ==");
  print_endline (table ~header rows);
  print_newline ()

let f1 v = Printf.sprintf "%.1f" v
let f2 v = Printf.sprintf "%.2f" v
let f3 v = Printf.sprintf "%.3f" v
let pct v = Printf.sprintf "%.1f" (100. *. v)
let ms us = Printf.sprintf "%.1f" (us /. 1000.)

let mean = function
  | [] -> 0.
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

(* ---- observability rendering ----------------------------------------- *)

let stats_header =
  [ "node"; "accesses"; "hits"; "misses"; "miss %"; "evict"; "demote"; "prefetch";
    "pf hits" ]

let stats_row name (s : Flo_storage.Stats.t) =
  [
    name;
    string_of_int s.Flo_storage.Stats.accesses;
    string_of_int s.Flo_storage.Stats.hits;
    string_of_int s.Flo_storage.Stats.misses;
    pct (Flo_storage.Stats.miss_rate s);
    string_of_int s.Flo_storage.Stats.evictions;
    string_of_int s.Flo_storage.Stats.demotions;
    string_of_int s.Flo_storage.Stats.prefetches;
    string_of_int s.Flo_storage.Stats.prefetch_hits;
  ]

let print_node_stats ~title named =
  print_table ~title ~header:stats_header (List.map (fun (n, s) -> stats_row n s) named)

let latency_summary (h : Flo_obs.Histogram.t) =
  if Flo_obs.Histogram.is_empty h then "no observations"
  else
    Printf.sprintf "n=%d  mean=%s us  p50=%s us  p90=%s us  p99=%s us  max=%s us"
      (Flo_obs.Histogram.count h)
      (f1 (Flo_obs.Histogram.mean h))
      (f1 (Flo_obs.Histogram.percentile h 0.5))
      (f1 (Flo_obs.Histogram.percentile h 0.9))
      (f1 (Flo_obs.Histogram.percentile h 0.99))
      (f1 (Flo_obs.Histogram.max_value h))

let print_latency ~title h =
  print_endline ("== " ^ title ^ " ==");
  print_endline (latency_summary h);
  print_newline ()

(* ---- trace-analysis rendering ----------------------------------------- *)

let matrix ~label m =
  let n = Array.length m in
  table
    ~header:("" :: List.init n label)
    (Array.to_list
       (Array.mapi
          (fun i row -> label i :: Array.to_list (Array.map string_of_int row))
          m))

let thread_label i = Printf.sprintf "t%d" i

let reuse_summary_row name (r : Flo_analysis.Reuse.t) =
  let h = Flo_analysis.Reuse.histogram r in
  let p q = if Flo_obs.Histogram.is_empty h then "-" else f1 (Flo_obs.Histogram.percentile h q) in
  [
    name;
    string_of_int (Flo_analysis.Reuse.touches r);
    string_of_int (Flo_analysis.Reuse.distinct_blocks r);
    string_of_int (Flo_analysis.Reuse.cold_touches r);
    string_of_int (Flo_analysis.Reuse.reuses r);
    p 0.5;
    p 0.9;
    p 0.99;
    (if Flo_obs.Histogram.is_empty h then "-" else f1 (Flo_obs.Histogram.max_value h));
  ]

let reuse_header =
  [ "cache"; "touches"; "distinct"; "cold"; "reuses"; "p50"; "p90"; "p99"; "max" ]

let analysis_summary ?(max_matrix = 16) a =
  let module A = Flo_analysis.Analyzer in
  let module S = Flo_analysis.Sharing in
  let module L = Flo_analysis.Locality in
  let buf = Buffer.create 4096 in
  let section title body =
    Buffer.add_string buf ("== " ^ title ^ " ==\n");
    Buffer.add_string buf body;
    Buffer.add_string buf "\n\n"
  in
  let caches = A.caches a in
  (* headline counters *)
  let lo, hi = A.time_span a in
  (* fault-path rows appear only when the trace contains fault events, so
     fault-free reports (and their golden files) are unchanged *)
  let fault_rows =
    List.filter_map
      (fun (label, kind) ->
        let n = A.kind_count a kind in
        if n = 0 then None else Some [ label; string_of_int n ])
      [
        ("read faults", Flo_obs.Event.Fault);
        ("retries", Flo_obs.Event.Retry);
        ("timeouts", Flo_obs.Event.Timeout);
        ("failover reads", Flo_obs.Event.Failover);
      ]
  in
  section "trace summary"
    (table ~header:[ "quantity"; "value" ]
       ([
          [ "events"; string_of_int (A.event_count a) ];
          [ "block requests"; string_of_int (A.kind_count a Flo_obs.Event.Access) ];
          [ "disk reads"; string_of_int (A.kind_count a Flo_obs.Event.Disk_read) ];
        ]
       @ fault_rows
       @ [
           [ "disk time (us)"; f1 (A.total_disk_us a) ];
           [ "span (us, modeled)"; Printf.sprintf "%s .. %s" (f1 lo) (f1 hi) ];
           [ "threads"; string_of_int (L.threads (A.locality a)) ];
           [ "caches"; string_of_int (List.length caches) ];
         ]));
  (* reuse distances *)
  let reuse_rows =
    List.filter_map
      (fun c -> Option.map (reuse_summary_row (A.cache_name c)) (A.reuse_of a c))
      caches
  in
  if reuse_rows <> [] then
    section "block reuse distances (distinct blocks between reuses)"
      (table ~header:reuse_header reuse_rows);
  (* per-cache sharing and conflicts *)
  List.iter
    (fun c ->
      match A.sharing_of a c with
      | None -> ()
      | Some s ->
        let active = S.active_threads s in
        let n = List.length active in
        if n > 1 then begin
          (* matrices over the active threads only, |active|^2 cells *)
          let ids = Array.of_list active in
          let label i = thread_label ids.(i) in
          let body = Buffer.create 512 in
          if n <= max_matrix then begin
            Buffer.add_string body (matrix ~label (S.shared_among s active));
            Buffer.add_char body '\n'
          end;
          Buffer.add_string body
            (Printf.sprintf
               "cross-thread shared: %d pair-sharings over %d blocks (of %d distinct)"
               (S.cross_shared s) (S.shared_blocks s) (S.distinct_blocks s));
          section
            (Printf.sprintf
               "inter-thread sharing: %s (blocks both touched; diagonal = per-thread distinct)"
               (A.cache_name c))
            (Buffer.contents body);
          let conflict_body = Buffer.create 512 in
          if n <= max_matrix && S.total_conflicts s > 0 then begin
            Buffer.add_string conflict_body
              (matrix ~label (S.conflicts_among s active));
            Buffer.add_char conflict_body '\n'
          end;
          Buffer.add_string conflict_body
            (Printf.sprintf "conflicts: %d of %d evictions hurt another thread"
               (S.total_conflicts s) (S.evictions s));
          section
            (Printf.sprintf
               "eviction conflicts: %s (row evicted a block column still needed)"
               (A.cache_name c))
            (Buffer.contents conflict_body)
        end)
    caches;
  (* Step I objective: per-thread distinct blocks per file *)
  let l = A.locality a in
  let per_thread = L.per_thread l in
  if per_thread <> [] then begin
    let files = L.files l in
    let many = List.length files > 12 in
    let header =
      "thread"
      :: ((if many then [] else List.map (fun f -> Printf.sprintf "f%d" f) files)
         @ [ "total" ])
    in
    let rows =
      List.map
        (fun (t, _) ->
          thread_label t
          :: ((if many then []
              else
                List.map (fun f -> string_of_int (L.distinct l ~thread:t ~file:f)) files)
             @ [ string_of_int (L.total_distinct l ~thread:t) ]))
        per_thread
    in
    section "per-thread distinct blocks per file (Step I objective, Eq. 4)"
      (table ~header rows)
  end;
  Buffer.contents buf

let print_analysis ?max_matrix a = print_string (analysis_summary ?max_matrix a)

let rel_pct v = if v = infinity then "inf" else pct v

let fidelity_summary (fd : Flo_fidelity.Fidelity.t) =
  let module F = Flo_fidelity.Fidelity in
  let module P = Flo_fidelity.Predict in
  let buf = Buffer.create 2048 in
  let section title body =
    Buffer.add_string buf ("== " ^ title ^ " ==\n");
    Buffer.add_string buf body;
    Buffer.add_string buf "\n\n"
  in
  let p = fd.F.predict in
  section "model parameters"
    (table ~header:[ "quantity"; "value" ]
       [
         [ "app"; fd.F.app ];
         [ "threads"; string_of_int p.P.threads ];
         [ "block (elements)"; string_of_int p.P.block_elems ];
         [ "blocks/thread"; string_of_int p.P.blocks_per_thread ];
         [ "sample"; string_of_int p.P.sample ];
         [ "tolerance (rel %)"; pct fd.F.tolerance ];
       ]);
  section "per-array layout predictions (Step II parameters)"
    (table
       ~header:[ "array"; "layout"; "chunk"; "aligned"; "layers" ]
       (List.map
          (fun (ap : P.array_prediction) ->
            [
              ap.P.array_name;
              ap.P.layout;
              (match ap.P.chunk_elems with Some c -> string_of_int c | None -> "-");
              (if ap.P.optimized then string_of_bool ap.P.block_aligned else "-");
              (if ap.P.layers = [] then "-"
               else
                 String.concat "; "
                   (List.map (Format.asprintf "%a" P.pp_layer) ap.P.layers));
            ])
          p.P.arrays));
  section "predicted vs observed distinct blocks (Step I, Eq. 4)"
    (table
       ~header:[ "thread"; "file"; "predicted"; "observed"; "drift"; "rel %"; "flag" ]
       (List.map
          (fun (r : F.row) ->
            [
              thread_label r.F.thread;
              Printf.sprintf "f%d" r.F.file;
              string_of_int r.F.predicted;
              string_of_int r.F.observed;
              string_of_int (F.abs_drift r);
              rel_pct (F.rel_drift r);
              (if F.rel_drift r > fd.F.tolerance then "DRIFT" else "ok");
            ])
          fd.F.rows));
  section "cross-thread sharing (Step II)"
    (table
       ~header:[ "quantity"; "predicted"; "observed"; "drift" ]
       [
         [
           "shared blocks";
           string_of_int fd.F.predicted_cross_shared;
           string_of_int fd.F.observed_cross_shared;
           string_of_int (F.sharing_drift fd);
         ];
         [
           "pair co-touches";
           string_of_int fd.F.predicted_cross_pairs;
           string_of_int fd.F.observed_cross_pairs;
           string_of_int (F.pairs_drift fd);
         ];
       ]);
  if fd.F.layer_rows <> [] then
    section "per-cache sharing vs request-level bound"
      (table
         ~header:[ "cache"; "observed cross"; "bound"; "flag" ]
         (List.map
            (fun (lr : F.layer_row) ->
              [
                lr.F.cache;
                string_of_int lr.F.observed_cross;
                string_of_int lr.F.predicted_bound;
                (if lr.F.violated then "VIOLATION" else "ok");
              ])
            fd.F.layer_rows));
  Buffer.add_string buf
    (Printf.sprintf
       "verdict: %s (max |drift| %d, max rel %s%%, %d flagged rows, %d layer violations)\n"
       (if F.ok fd then "OK" else "DRIFT")
       (F.max_abs_drift fd)
       (rel_pct (F.max_rel_drift fd))
       (List.length (F.flagged fd))
       (List.length (F.layer_violations fd)));
  Buffer.contents buf

let fidelity_line (fd : Flo_fidelity.Fidelity.t) =
  let module F = Flo_fidelity.Fidelity in
  Printf.sprintf
    "%-10s rows=%-3d max_abs=%-3d max_rel=%s%% sharing=%d/%d flagged=%d violations=%d %s"
    fd.F.app
    (List.length fd.F.rows)
    (F.max_abs_drift fd)
    (rel_pct (F.max_rel_drift fd))
    fd.F.predicted_cross_shared fd.F.observed_cross_shared
    (List.length (F.flagged fd))
    (List.length (F.layer_violations fd))
    (if F.ok fd then "OK" else "DRIFT")

let print_fidelity fd = print_string (fidelity_summary fd)

(* --- fault / chaos rendering ----------------------------------------- *)

let degradation_summary (plan : Flo_core.Optimizer.plan) =
  let module O = Flo_core.Optimizer in
  let degraded = O.degraded plan in
  if degraded = [] then
    Printf.sprintf "layout pass: %d/%d arrays fully optimized, no degradations\n"
      (O.optimized_count plan) (O.total_arrays plan)
  else
    table
      ~header:[ "array"; "stage"; "reason" ]
      (List.map
         (fun (d : O.decision) ->
           [ d.O.array_name; O.stage_to_string d.O.stage; O.reason_to_string d.O.reason ])
         degraded)

let chaos_point_counts (p : Experiment.chaos_point) =
  let module I = Flo_faults.Injector in
  let add (a : I.counts) (b : I.counts) =
    ( a.I.faults + b.I.faults,
      a.I.retries + b.I.retries,
      a.I.timeouts + b.I.timeouts,
      a.I.failovers + b.I.failovers )
  in
  add p.Experiment.default_counts p.Experiment.inter_counts

let chaos_verdict points =
  match points with
  | [] | [ _ ] -> "need at least two fault scales for a verdict"
  | first :: _ ->
    let last = List.nth points (List.length points - 1) in
    let adv (p : Experiment.chaos_point) =
      100.
      *. (Run.l2_miss_per_element p.Experiment.default_r
         -. Run.l2_miss_per_element p.Experiment.inter_r)
    in
    let a0 = adv first and a1 = adv last in
    Printf.sprintf
      "L2 miss/elem advantage %.2fpp -> %.2fpp at scale x%g; optimized advantage %s \
       under faults"
      a0 a1 last.Experiment.scale
      (if a1 > 0. then "persists" else "collapses")

let chaos_summary ~app ~seed points =
  let module I = Flo_faults.Injector in
  let buf = Buffer.create 2048 in
  let rows =
    List.map
      (fun (p : Experiment.chaos_point) ->
        let faults, retries, timeouts, failovers = chaos_point_counts p in
        let d = p.Experiment.default_r and o = p.Experiment.inter_r in
        [
          Printf.sprintf "x%g" p.Experiment.scale;
          ms d.Run.elapsed_us;
          ms o.Run.elapsed_us;
          f3 (o.Run.elapsed_us /. d.Run.elapsed_us);
          f2 (100. *. Run.l2_miss_per_element d);
          f2 (100. *. Run.l2_miss_per_element o);
          string_of_int faults;
          string_of_int retries;
          string_of_int timeouts;
          string_of_int failovers;
        ])
      points
  in
  Buffer.add_string buf
    (Printf.sprintf "chaos sweep: %s (seed %d; default vs optimized layouts)\n" app seed);
  Buffer.add_string buf
    (table
       ~header:
         [
           "scale"; "default ms"; "optimized ms"; "norm"; "L2 m/e def %"; "L2 m/e opt %";
           "faults"; "retries"; "timeouts"; "failovers";
         ]
       rows);
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Printf.sprintf "chaos %s seed=%d: %s\n" app seed (chaos_verdict points));
  Buffer.contents buf

let print_chaos ~app ~seed points = print_string (chaos_summary ~app ~seed points)
