(* flopt: command-line driver for the file-layout optimization framework.

   Subcommands:
     apps                      list the 16-application suite
     plan APP                  show the compiler pass's per-array decisions
     run APP [options]         simulate one execution and print metrics
                               (--trace FILE writes a JSONL event trace,
                                --metrics prints per-node breakdowns and
                                request-latency percentiles)
     bench APP [options]       repeated runs; report p50/p99 request latency
     analyze TRACE [options]   trace analytics: reuse-distance histograms,
                               inter-thread sharing/conflict matrices,
                               per-thread distinct-block counts
                               (--perfetto OUT.json exports a Chrome
                                trace-event file for ui.perfetto.dev)
     layout APP ARRAY_ID       dump a sample of the element->offset mapping
     traffic APP-MIX [options] open-loop multi-tenant traffic over a Zipfian
                               app mix, sharded across storage-node worker
                               domains; per-tenant latency percentiles,
                               fairness and noisy-neighbor deltas
     topology                  print the default scaled Table 1 system *)

open Cmdliner
open Flo_engine
open Flo_workloads
open Flo_core

let find_app name =
  match Suite.find name with
  | app -> Ok app
  | exception Not_found ->
    Error (`Msg (Printf.sprintf "unknown application %S (try `flopt apps')" name))

let app_conv =
  Arg.conv ((fun s -> find_app s), fun ppf a -> Format.fprintf ppf "%s" a.App.name)

let app_arg =
  Arg.(required & pos 0 (some app_conv) None & info [] ~docv:"APP" ~doc:"Application name.")

let scope_arg =
  let values =
    [ ("both", Internode.Both); ("io-only", Internode.Io_only);
      ("storage-only", Internode.Storage_only) ]
  in
  Arg.(value & opt (enum values) Internode.Both
       & info [ "scope" ] ~docv:"SCOPE" ~doc:"Cache layers targeted: both, io-only, storage-only.")

type layout_mode = Default | Inter | Reindexed | Compmapped

let layout_arg =
  let values =
    [ ("default", Default); ("inter", Inter); ("reindex", Reindexed); ("compmap", Compmapped) ]
  in
  Arg.(value & opt (enum values) Inter
       & info [ "layout" ] ~docv:"MODE"
           ~doc:"File layouts: default (row-major), inter (the paper's pass), reindex [27], compmap [26].")

let caching_arg =
  let values =
    [ ("lru", Run.Lru); ("karma", Run.Karma); ("demote", Run.Demote);
      ("mq", Run.Custom (Flo_storage.Lru.create, Flo_storage.Mq.create));
      ("clock", Run.Custom (Flo_storage.Clock.create, Flo_storage.Clock.create)) ]
  in
  Arg.(value & opt (enum values) Run.Lru
       & info [ "caching" ] ~docv:"POLICY" ~doc:"Cache management: lru, karma, demote, mq, clock.")

let mapping_arg =
  Arg.(value & opt int 0
       & info [ "mapping" ] ~docv:"SEED"
           ~doc:"Thread-to-node mapping: 0 = identity (Mapping I), 1-3 = Mappings II-IV.")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write every simulator event (access/hit/miss/evict/demote/prefetch/disk \
                 read) as one JSON object per line to $(docv).")

let metrics_arg =
  Arg.(value & flag
       & info [ "metrics" ]
           ~doc:"Collect and print per-node cache breakdowns, request-latency \
                 percentiles and optimizer phase timings.")

let config = Config.default

let jobs_arg =
  Arg.(value & opt (some int) None
       & info [ "jobs" ] ~docv:"N"
           ~doc:"Worker domains for app/rep fan-out (default: \
                 \\$FLOPT_JOBS or the machine's core count; 1 = the \
                 sequential reference path).  Results are identical for \
                 every value.")

let resolve_jobs = function
  | None -> Parallel.default_jobs ()
  | Some n when n >= 1 -> n
  | Some _ ->
    prerr_endline "flopt: --jobs must be a positive integer";
    exit 2

(* every file output but the --trace event stream goes through the one
   atomic writer; an unwritable path is a usage error, not a crash *)
let write_file path f =
  try Flo_obs.Json.write_atomic path f
  with Sys_error msg ->
    Printf.eprintf "flopt: cannot write %s: %s\n" path msg;
    exit 2

(* an input path that cannot be read (a directory, a permission error) is
   a usage error, not a crash; Sys_error's own "PATH: " prefix is dropped
   so the path is named once *)
let cannot_read ~cmd path msg =
  let prefix = path ^ ": " in
  let reason =
    if String.starts_with ~prefix msg then
      String.sub msg (String.length prefix) (String.length msg - String.length prefix)
    else msg
  in
  Printf.eprintf "flopt: %s: cannot read %s: %s\n" cmd path reason;
  exit 2

(* run with the observability layer attached per the --trace/--metrics
   flags; the trace file is flushed and closed even if the run raises
   (Sink.with_jsonl), so a crashed simulation still leaves a parseable
   JSONL prefix *)
let observed_run ~trace ~metrics f =
  let registry = if metrics then Some (Flo_obs.Metrics.create ()) else None in
  let result =
    match trace with
    | None -> f ?sink:None ?metrics:registry ()
    | Some path -> (
      try
        Flo_obs.Sink.with_jsonl path (fun sink ->
            f ?sink:(Some sink) ?metrics:registry ())
      with Sys_error msg ->
        Printf.eprintf "flopt: cannot write trace file: %s\n" msg;
        exit 2)
  in
  (result, registry)

let print_metrics registry (result : Run.result) =
  let node_rows prefix stats =
    Array.to_list (Array.mapi (fun i s -> (Printf.sprintf "%s%d" prefix i, s)) stats)
  in
  Report.print_node_stats ~title:"I/O-node caches (L1)" (node_rows "io" result.Run.l1_nodes);
  Report.print_node_stats ~title:"storage-node caches (L2)"
    (node_rows "st" result.Run.l2_nodes);
  (match Flo_obs.Metrics.find_histogram registry "request_latency_us" with
  | Some h -> Report.print_latency ~title:"request latency (modeled)" h
  | None -> ());
  (* span rows: gather first so the name column fits the widest span name
     instead of truncating past a fixed 28 columns *)
  let spans =
    List.filter_map
      (fun (name, _labels, value) ->
        match value with
        | Flo_obs.Metrics.Histogram h
          when String.length name > 5 && String.sub name 0 5 = "span." ->
          Some (name, Report.latency_summary h)
        | _ -> None)
      (Flo_obs.Metrics.to_list registry)
  in
  let width = List.fold_left (fun acc (n, _) -> max acc (String.length n)) 0 spans in
  List.iter (fun (name, cell) -> Printf.printf "%-*s %s\n" width name cell) spans

let apps_cmd =
  let doc = "List the 16-application evaluation suite." in
  let run () =
    (* column widths from the rendered cells, not fixed field widths *)
    let name_w =
      List.fold_left (fun acc a -> max acc (String.length a.App.name)) 0 Suite.all
    in
    let group_w =
      List.fold_left
        (fun acc a -> max acc (String.length (App.group_to_string a.App.group)))
        0 Suite.all
    in
    List.iter
      (fun app ->
        Printf.printf "%-*s [%-*s]%s %s\n" name_w app.App.name group_w
          (App.group_to_string app.App.group)
          (if app.App.master_slave then " master-slave" else "")
          app.App.description)
      Suite.all
  in
  Cmd.v (Cmd.info "apps" ~doc) Term.(const run $ const ())

let plan_cmd =
  let doc = "Show the layout pass's decisions for an application." in
  let run app scope =
    let plan = Experiment.inter_plan ~scope config app in
    Format.printf "%a@." Optimizer.pp plan
  in
  Cmd.v (Cmd.info "plan" ~doc) Term.(const run $ app_arg $ scope_arg)

let run_cmd =
  let doc = "Simulate one execution of an application." in
  let run app layout_mode caching scope seed trace metrics =
    let mapping = if seed = 0 then None else Some (Experiment.random_mapping ~seed config) in
    let result, registry =
      observed_run ~trace ~metrics (fun ?sink ?metrics () ->
          match layout_mode with
          | Default ->
            Run.run ?mapping ~caching ?sink ?metrics ~config
              ~layouts:(Experiment.default_layouts app) app
          | Inter ->
            Run.run ?mapping ~caching ?sink ?metrics ~config
              ~layouts:(Experiment.inter_layouts ~scope config app) app
          | Reindexed ->
            let outcome = Experiment.reindex_best config app in
            Run.run ?mapping ~caching ?sink ?metrics ~config
              ~layouts:(fun id -> List.assoc id outcome.Reindex.layouts)
              app
          | Compmapped ->
            let outcome = Experiment.compmap_best config app in
            Run.run ?mapping ~caching ?sink ?metrics
              ~assigns:(fun i -> List.assoc i outcome.Compmap.choices)
              ~config ~layouts:(Experiment.default_layouts app) app)
    in
    Format.printf "%a@." Run.pp_result result;
    Printf.printf "miss/element: L1 %.2f%%  L2 %.2f%%\n"
      (100. *. Run.l1_miss_per_element result)
      (100. *. Run.l2_miss_per_element result);
    Option.iter (fun r -> print_metrics r result) registry;
    Option.iter (Printf.printf "trace written to %s\n") trace
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const run $ app_arg $ layout_arg $ caching_arg $ scope_arg $ mapping_arg
          $ trace_arg $ metrics_arg)

let bench_cmd =
  let doc =
    "Run an application repeatedly and report request-latency percentiles \
     (p50/p90/p99) from the observability histograms."
  in
  let reps_arg =
    Arg.(value & opt int 3
         & info [ "reps" ] ~docv:"N" ~doc:"Number of repetitions to accumulate.")
  in
  let readahead_arg =
    Arg.(value & opt int 0
         & info [ "readahead" ] ~docv:"K"
             ~doc:"Storage-node sequential prefetch depth per disk read.")
  in
  let run app layout_mode caching reps readahead jobs =
    if reps <= 0 then begin
      prerr_endline "flopt: bench: --reps must be positive";
      exit 2
    end;
    let jobs = resolve_jobs jobs in
    let layouts =
      match layout_mode with
      | Default | Reindexed | Compmapped -> Experiment.default_layouts app
      | Inter -> Experiment.inter_layouts config app
    in
    let registry, results =
      if jobs <= 1 then begin
        (* the sequential reference: one registry accumulated across reps *)
        let registry = Flo_obs.Metrics.create () in
        let rs =
          Array.init reps (fun _ ->
              Run.run ~caching ~readahead ~metrics:registry ~config ~layouts app)
        in
        (registry, rs)
      end
      else begin
        (* each rep simulates into its own registry on the domain pool;
           merging in rep order keeps the report deterministic *)
        let pairs =
          Parallel.map ~jobs
            (fun _rep ->
              let registry = Flo_obs.Metrics.create () in
              let r = Run.run ~caching ~readahead ~metrics:registry ~config ~layouts app in
              (registry, r))
            (Array.init reps Fun.id)
        in
        let merged =
          Array.fold_left
            (fun acc (reg, _) -> Flo_obs.Metrics.merge acc reg)
            (Flo_obs.Metrics.create ()) pairs
        in
        (merged, Array.map snd pairs)
      end
    in
    let elapsed = Array.to_list (Array.map (fun r -> r.Run.elapsed_us) results) in
    let last = Some results.(Array.length results - 1) in
    Printf.printf "%s: %d rep(s), modeled time %s ms (mean)\n\n" app.App.name reps
      (Report.ms (Report.mean elapsed));
    Option.iter (print_metrics registry) last;
    let disk_rows =
      List.filter_map
        (fun (name, labels, value) ->
          match value with
          | Flo_obs.Metrics.Histogram h when name = "disk_service_us" ->
            let node = try List.assoc "node" labels with Not_found -> "?" in
            Some
              (Printf.sprintf "disk_service_us{node=%s}" node,
               Report.latency_summary h)
          | _ -> None)
        (Flo_obs.Metrics.to_list registry)
    in
    let width =
      List.fold_left (fun acc (l, _) -> max acc (String.length l)) 0 disk_rows
    in
    List.iter
      (fun (label, cell) -> Printf.printf "%-*s %s\n" width label cell)
      disk_rows
  in
  Cmd.v (Cmd.info "bench" ~doc)
    Term.(const run $ app_arg $ layout_arg $ caching_arg $ reps_arg $ readahead_arg
          $ jobs_arg)

let analyze_cmd =
  let doc =
    "Analyze a JSONL event trace: block reuse-distance histograms per cache, \
     inter-thread sharing and eviction-conflict matrices per shared cache, \
     per-thread distinct-block counts (the paper's Step I/II objectives), and \
     optional Perfetto export."
  in
  let trace_pos =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"TRACE" ~doc:"JSONL trace written by $(b,flopt run --trace).")
  in
  let perfetto_arg =
    Arg.(value & opt (some string) None
         & info [ "perfetto" ] ~docv:"OUT"
             ~doc:"Also write the trace as Chrome trace-event JSON to $(docv) — open \
                   it in ui.perfetto.dev (per-thread request timelines colored by \
                   L1-hit/L2-hit/disk outcome).")
  in
  let max_matrix_arg =
    Arg.(value & opt int 16
         & info [ "max-matrix" ] ~docv:"N"
             ~doc:"Print full sharing/conflict matrices only up to $(docv) threads \
                   (totals are always printed).")
  in
  let run path perfetto max_matrix =
    let keep_events = perfetto <> None in
    match Flo_analysis.Analyzer.load_file ~keep_events path with
    | Error (Flo_analysis.Analyzer.Malformed _ as e) ->
      (* a broken trace is a data error, not an I/O one: report the offending
         line and exit 1 so scripts can tell the two apart *)
      Printf.eprintf "flopt: analyze: %s: %s\n" path
        (Flo_analysis.Analyzer.load_error_to_string e);
      exit 1
    | Error (Flo_analysis.Analyzer.Io msg) -> cannot_read ~cmd:"analyze" path msg
    | Ok a ->
      Report.print_analysis ~max_matrix a;
      Option.iter
        (fun out ->
          write_file out (fun oc ->
              Flo_analysis.Perfetto.write oc (Flo_analysis.Analyzer.events a));
          Printf.printf "perfetto trace written to %s (open in ui.perfetto.dev)\n" out)
        perfetto
  in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(const run $ trace_pos $ perfetto_arg $ max_matrix_arg)

let layout_cmd =
  let doc = "Dump a sample of the element-to-offset mapping of one array." in
  let array_arg =
    Arg.(required & pos 1 (some int) None & info [] ~docv:"ARRAY_ID" ~doc:"Array id.")
  in
  let run app id =
    let plan = Experiment.inter_plan config app in
    match Optimizer.layout_of plan id with
    | exception Not_found -> prerr_endline "no such array id"
    | layout ->
      let space = File_layout.space layout in
      Printf.printf "layout: %s  file size: %d elements (space %d)\n"
        (File_layout.describe layout) (File_layout.size layout)
        (Flo_poly.Data_space.cardinal space);
      let step = max 1 (Flo_poly.Data_space.cardinal space / 16) in
      let i = ref 0 in
      Flo_poly.Data_space.iter space (fun a ->
          if !i mod step = 0 then
            Format.printf "  %a -> %d%s@." Flo_linalg.Ivec.pp a (File_layout.offset_of layout a)
              (match File_layout.owner_of layout a with
              | Some t -> Printf.sprintf " (thread %d)" t
              | None -> "");
          incr i)
  in
  Cmd.v (Cmd.info "layout" ~doc) Term.(const run $ app_arg $ array_arg)

let trace_csv_cmd =
  let doc = "Export per-thread block-request traces as CSV (thread, seq, file, block)." in
  let out_arg =
    Arg.(value & opt string "-" & info [ "out" ] ~docv:"FILE" ~doc:"Output file ('-' = stdout).")
  in
  let run app layout_mode out =
    let layouts =
      match layout_mode with
      | Default | Reindexed | Compmapped -> Experiment.default_layouts app
      | Inter -> Experiment.inter_layouts config app
    in
    let topo = config.Config.topology in
    let csv oc =
      Printf.fprintf oc "nest,thread,seq,file,block\n";
      List.iteri
        (fun i nest ->
          let streams =
            Tracegen.nest_streams ~layouts ~block_elems:topo.Flo_storage.Topology.block_elems
              ~threads:(Flo_storage.Topology.threads topo) ~blocks_per_thread:1 nest
          in
          Array.iteri
            (fun t stream ->
              Array.iteri
                (fun seq b ->
                  Printf.fprintf oc "%d,%d,%d,%d,%d\n" i t seq (Flo_storage.Block.file b)
                    (Flo_storage.Block.index b))
                stream)
            streams)
        app.App.program.Flo_poly.Program.nests
    in
    if out = "-" then csv stdout else write_file out csv
  in
  Cmd.v (Cmd.info "trace-csv" ~doc) Term.(const run $ app_arg $ layout_arg $ out_arg)

(* `flopt trace` — the viewer for request-level sampled traces written by
   `flopt traffic --trace-out` / `flopt slo --trace-out` *)
let trace_cmd =
  let doc =
    "Render request-level sampled traces (JSONL written by $(b,flopt traffic \
     --trace-out) or $(b,flopt slo --trace-out)) as span trees on the \
     modeled clock: arrival, shard queueing/congestion, per-layer cache \
     verdicts, disk service and retries.  Filter by tenant, app, outcome, \
     latency or trace id — the ids are exactly the ones report p99 exemplar \
     lines and Perfetto slice args carry."
  in
  let file_pos =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE" ~doc:"Sampled-trace JSONL file.")
  in
  let tenant_arg =
    Arg.(value & opt (some int) None
         & info [ "tenant" ] ~docv:"N" ~doc:"Only traces of tenant $(docv).")
  in
  let app_filter_arg =
    Arg.(value & opt (some string) None
         & info [ "app" ] ~docv:"NAME" ~doc:"Only traces of application $(docv).")
  in
  let outcome_arg =
    Arg.(value & opt (some string) None
         & info [ "outcome" ] ~docv:"KIND"
             ~doc:"Only traces with this outcome ($(b,ok), $(b,fault), \
                   $(b,timeout)).")
  in
  let min_lat_arg =
    Arg.(value & opt (some float) None
         & info [ "min-lat" ] ~docv:"US"
             ~doc:"Only traces at least $(docv) modeled microseconds slow.")
  in
  let id_arg =
    Arg.(value & opt (some string) None
         & info [ "id" ] ~docv:"HEX"
             ~doc:"Only the trace with this 16-digit hex id (as printed by \
                   report exemplar lines).")
  in
  let max_arg =
    Arg.(value & opt int 10
         & info [ "max" ] ~docv:"N"
             ~doc:"Span trees to render (slowest first); 0 means all.")
  in
  let perfetto_arg =
    Arg.(value & opt (some string) None
         & info [ "perfetto" ] ~docv:"OUT"
             ~doc:"Instead of rendering, export the matching traces as \
                   Chrome trace-event JSON for ui.perfetto.dev.")
  in
  let run path tenant app_name outcome min_lat id max_trees perfetto =
    (* every latency compares false against nan: reject it rather than
       silently match nothing *)
    if Option.fold ~none:false ~some:Float.is_nan min_lat then begin
      prerr_endline "flopt: trace: --min-lat must be a number, not nan";
      exit 2
    end;
    let id =
      Option.map
        (fun s ->
          match Flo_obs.Trace.id_of_string s with
          | Some id -> id
          | None ->
            Printf.eprintf "flopt: trace: malformed trace id %S (want 16 hex digits)\n" s;
            exit 2)
        id
    in
    let traces = ref [] in
    let ic = try open_in path with Sys_error msg -> cannot_read ~cmd:"trace" path msg in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let lineno = ref 0 in
        try
          while true do
            let line = input_line ic in
            incr lineno;
            if String.trim line <> "" then
              match Flo_obs.Trace.of_json line with
              | Ok t -> traces := t :: !traces
              | Error msg ->
                Printf.eprintf "flopt: trace: %s, line %d: %s\n" path !lineno msg;
                exit 2
          done
        with
        | End_of_file -> ()
        | Sys_error msg -> cannot_read ~cmd:"trace" path msg);
    let all = List.rev !traces in
    let keep (t : Flo_obs.Trace.t) =
      (match tenant with None -> true | Some n -> t.Flo_obs.Trace.tenant = n)
      && (match app_name with None -> true | Some a -> t.Flo_obs.Trace.app = a)
      && (match outcome with None -> true | Some o -> t.Flo_obs.Trace.outcome = o)
      && (match min_lat with None -> true | Some l -> t.Flo_obs.Trace.latency_us >= l)
      && match id with None -> true | Some i -> t.Flo_obs.Trace.trace_id = i
    in
    let matching = List.filter keep all in
    match perfetto with
    | Some out ->
      write_file out (fun oc -> Flo_analysis.Perfetto.write_traces oc matching);
      Printf.printf "perfetto export of %d trace(s) written to %s (open in ui.perfetto.dev)\n"
        (List.length matching) out
    | None ->
      (* slowest first — the tail is what tracing exists to explain; ties
         break by trace id so the order is total and deterministic *)
      let sorted =
        List.sort
          (fun (a : Flo_obs.Trace.t) (b : Flo_obs.Trace.t) ->
            match compare b.Flo_obs.Trace.latency_us a.Flo_obs.Trace.latency_us with
            | 0 -> compare a.Flo_obs.Trace.trace_id b.Flo_obs.Trace.trace_id
            | c -> c)
          matching
      in
      let shown =
        if max_trees <= 0 then sorted
        else
          List.filteri (fun i _ -> i < max_trees) sorted
      in
      List.iter (fun t -> Format.printf "%a@.@." Flo_obs.Trace.pp_tree t) shown;
      let represented =
        List.fold_left (fun a (t : Flo_obs.Trace.t) -> a + t.Flo_obs.Trace.count) 0
          matching
      in
      Printf.printf
        "trace file %s: %d trace(s) of %d loaded match (%d modeled requests represented, %d rendered)\n"
        path (List.length matching) (List.length all) represented (List.length shown)
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(const run $ file_pos $ tenant_arg $ app_filter_arg $ outcome_arg
          $ min_lat_arg $ id_arg $ max_arg $ perfetto_arg)

let bench_diff_cmd =
  let doc =
    "Compare two flopt-bench JSON manifests (written by $(b,bench -- json \
     --out FILE)) metric by metric.  Gated metrics are deterministic modeled \
     quantities — higher is worse; with $(b,--fail-on-regress) the exit \
     status is 1 when any gated metric grew by more than the given percent \
     or is missing from the new manifest."
  in
  let old_pos =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"OLD" ~doc:"Baseline manifest.")
  in
  let new_pos =
    Arg.(required & pos 1 (some file) None
         & info [] ~docv:"NEW" ~doc:"Candidate manifest.")
  in
  let fail_arg =
    Arg.(value & opt (some float) None
         & info [ "fail-on-regress" ] ~docv:"PCT"
             ~doc:"Exit 1 when a gated metric regressed by more than $(docv) \
                   percent or disappeared.")
  in
  let pp_delta c =
    if c.Bench_schema.delta_pct = infinity then "+inf"
    else Printf.sprintf "%+.1f" c.Bench_schema.delta_pct
  in
  let run old_path new_path fail_on_regress =
    let load path =
      match Bench_schema.load path with
      | Ok m -> m
      | Error msg ->
        Printf.eprintf "flopt: bench-diff: %s\n" msg;
        exit 2
    in
    let old_ = load old_path and new_ = load new_path in
    let d = Bench_schema.diff ~old_ ~new_ in
    let threshold = Option.value fail_on_regress ~default:0. in
    let regressed = Bench_schema.regressions ~threshold d in
    let missing = Bench_schema.missing_gated d in
    let rows =
      List.filter_map
        (fun (c : Bench_schema.change) ->
          if not c.Bench_schema.c_gated then None
          else
            Some
              [
                c.Bench_schema.c_app;
                c.Bench_schema.c_name;
                Printf.sprintf "%.4g" c.Bench_schema.old_value;
                Printf.sprintf "%.4g" c.Bench_schema.new_value;
                pp_delta c ^ "%";
                (if List.memq c regressed then "REGRESSED"
                 else if c.Bench_schema.delta_pct < 0. then "improved"
                 else "ok");
              ])
        d.Bench_schema.changes
    in
    Report.print_table ~title:"gated metrics (deterministic; higher is worse)"
      ~header:[ "app"; "metric"; "old"; "new"; "change"; "flag" ]
      rows;
    let ungated =
      List.filter (fun c -> not c.Bench_schema.c_gated) d.Bench_schema.changes
    in
    if ungated <> [] then
      Report.print_table ~title:"ungated metrics (trajectory data; informational)"
        ~header:[ "app"; "metric"; "old"; "new"; "change" ]
        (List.map
           (fun (c : Bench_schema.change) ->
             [
               c.Bench_schema.c_app;
               c.Bench_schema.c_name;
               Printf.sprintf "%.4g" c.Bench_schema.old_value;
               Printf.sprintf "%.4g" c.Bench_schema.new_value;
               pp_delta c ^ "%";
             ])
           ungated);
    List.iter
      (fun (m : Bench_schema.metric) ->
        Printf.printf "added:   %s/%s\n" m.Bench_schema.app m.Bench_schema.name)
      d.Bench_schema.added;
    List.iter
      (fun (m : Bench_schema.metric) ->
        Printf.printf "removed: %s/%s%s\n" m.Bench_schema.app m.Bench_schema.name
          (if m.Bench_schema.gated then " (gated: REGRESSED)" else ""))
      d.Bench_schema.removed;
    Printf.printf "%d gated regression(s) beyond %.1f%%, %d improvement(s)\n"
      (List.length regressed + List.length missing)
      threshold
      (List.length (Bench_schema.improvements d));
    if fail_on_regress <> None && (regressed <> [] || missing <> []) then exit 1
  in
  Cmd.v (Cmd.info "bench-diff" ~doc)
    Term.(const run $ old_pos $ new_pos $ fail_arg)

let fidelity_cmd =
  let doc =
    "Check the compiler's cost model against an actual simulated execution: \
     per-thread distinct-block counts (Step I, Eq. 4) and cross-thread \
     sharing (Step II), predicted analytically and observed from the run's \
     event stream, with per-row drift.  Without $(i,APP), sweeps the whole \
     16-application suite ($(b,--jobs) apps at a time) and prints one summary \
     row per app.  Exits 1 when any drift exceeds the tolerance."
  in
  let tolerance_arg =
    Arg.(value & opt float 0.
         & info [ "tolerance" ] ~docv:"REL"
             ~doc:"Relative-error budget per row (0.05 = 5%). Default 0: the \
                   model must match exactly.")
  in
  let predict_block_arg =
    Arg.(value & opt (some int) None
         & info [ "predict-block-elems" ] ~docv:"N"
             ~doc:"Make the predictions for block size $(docv) instead of the \
                   configured one — a deliberate model/runtime mismatch that \
                   should show up as drift.")
  in
  let sample_arg =
    Arg.(value & opt int 1
         & info [ "sample" ] ~docv:"N"
             ~doc:"Profile-mode sampling factor applied to both the run and \
                   the prediction.")
  in
  let suite_app_arg =
    Arg.(value & pos 0 (some app_conv) None
         & info [] ~docv:"APP" ~doc:"Application name (omit to sweep the whole suite).")
  in
  let run app layout_mode scope tolerance predict_block_elems sample jobs =
    if not (Float.is_finite tolerance && tolerance >= 0.) then begin
      prerr_endline "flopt: fidelity: --tolerance must be finite and non-negative";
      exit 2
    end;
    if sample < 1 then begin
      prerr_endline "flopt: fidelity: --sample must be positive";
      exit 2
    end;
    (match predict_block_elems with
    | Some b when b < 1 ->
      prerr_endline "flopt: fidelity: --predict-block-elems must be positive";
      exit 2
    | _ -> ());
    let layouts_for app =
      match layout_mode with
      | Default -> Experiment.default_layouts app
      | Inter -> Experiment.inter_layouts ~scope config app
      | Reindexed ->
        let outcome = Experiment.reindex_best config app in
        fun id -> List.assoc id outcome.Reindex.layouts
      | Compmapped ->
        (* compmap perturbs the iteration-to-thread assignment itself, which
           the analytical model has no parameters for *)
        prerr_endline "flopt: fidelity: --layout compmap is not predictable";
        exit 2
    in
    let fidelity_of app =
      fst
        (Experiment.fidelity ~tolerance ?predict_block_elems ~sample
           ~layouts:(layouts_for app) config app)
    in
    match app with
    | Some app ->
      let fd = fidelity_of app in
      Report.print_fidelity fd;
      if not (Flo_fidelity.Fidelity.ok fd) then exit 1
    | None ->
      (* suite mode: one self-contained fidelity join per app, fanned over
         the domain pool; rows come back in suite order for any --jobs *)
      let jobs = resolve_jobs jobs in
      let fds = Experiment.map_apps ~jobs fidelity_of Suite.all in
      let rows =
        List.map
          (fun (fd : Flo_fidelity.Fidelity.t) ->
            [
              fd.Flo_fidelity.Fidelity.app;
              string_of_int (List.length fd.Flo_fidelity.Fidelity.rows);
              string_of_int (List.length (Flo_fidelity.Fidelity.flagged fd));
              Printf.sprintf "%.4f" (Flo_fidelity.Fidelity.max_rel_drift fd);
              Printf.sprintf "%.4f" (Flo_fidelity.Fidelity.sharing_rel_drift fd);
              (if Flo_fidelity.Fidelity.ok fd then "ok" else "DRIFT");
            ])
          fds
      in
      Report.print_table
        ~title:
          (Printf.sprintf "fidelity: 16-app suite (tolerance %.3g, sample %d)" tolerance
             sample)
        ~header:[ "application"; "rows"; "flagged"; "max rel drift"; "sharing drift"; "status" ]
        rows;
      if not (List.for_all Flo_fidelity.Fidelity.ok fds) then exit 1
  in
  Cmd.v (Cmd.info "fidelity" ~doc)
    Term.(const run $ suite_app_arg $ layout_arg $ scope_arg $ tolerance_arg
          $ predict_block_arg $ sample_arg $ jobs_arg)

let chaos_cmd =
  let doc =
    "Sweep fault intensity over an application: at each scale, run the \
     default and the compiler-optimized layouts under the same seeded fault \
     plan (transient read errors, latency spikes, degraded nodes, offline \
     caches, stripe failover) and report modeled-time and L2-miss deltas \
     plus fault/retry/timeout/failover counters.  Scale 0 is the fault-free \
     reference, byte-identical to $(b,flopt run).  Identical seed and plan \
     give byte-identical results at every $(b,--jobs) setting."
  in
  let seed_arg =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"S"
             ~doc:"Fault-plan seed; every stochastic draw derives from it \
                   (replay-exact).")
  in
  let faults_arg =
    Arg.(value & opt string "read-error:rate=0.02;latency:rate=0.05,mult=4"
         & info [ "faults" ] ~docv:"SPEC"
             ~doc:"Fault plan, ';'-separated clauses: \
                   read-error:rate=R[,node=N]; latency:rate=R,mult=M[,node=N]; \
                   degrade:mult=M[,node=N]; cache-off:node=N; \
                   failover:node=N[,to=N']; \
                   retry:[max=K][,base=US][,mult=M][,jitter=J][,timeout=US].")
  in
  let scales_arg =
    Arg.(value & opt (list float) [ 0.; 0.5; 1.; 2. ]
         & info [ "rates" ] ~docv:"S1,S2,..."
             ~doc:"Fault-intensity scales to sweep (0 = fault-free reference).")
  in
  let opt_int name doc =
    Arg.(value & opt (some int) None & info [ name ] ~docv:"N" ~doc)
  in
  let storage_nodes_arg = opt_int "storage-nodes" "Override the storage-node count." in
  let io_nodes_arg = opt_int "io-nodes" "Override the I/O-node count." in
  let compute_nodes_arg = opt_int "compute-nodes" "Override the compute-node count." in
  let block_elems_arg = opt_int "block-elems" "Override the block size in elements." in
  let run app seed faults_spec scales caching scope jobs compute_nodes io_nodes
      storage_nodes block_elems =
    let config =
      match Config.build ?compute_nodes ?io_nodes ?storage_nodes ?block_elems () with
      | Ok c -> c
      | Error e ->
        Printf.eprintf "flopt: chaos: %s\n" (Config.invalid_config_to_string e);
        exit 2
    in
    let plan =
      match Flo_faults.Fault_plan.of_string faults_spec with
      | Ok p -> Flo_faults.Fault_plan.with_seed p seed
      | Error msg ->
        Printf.eprintf "flopt: chaos: bad --faults spec: %s\n" msg;
        exit 2
    in
    if scales = [] then begin
      prerr_endline "flopt: chaos: --rates must list at least one scale";
      exit 2
    end;
    let jobs = resolve_jobs jobs in
    Printf.printf "fault plan: %s\n\n" (Flo_faults.Fault_plan.to_string plan);
    print_string (Report.degradation_summary (Experiment.inter_plan ~scope config app));
    print_newline ();
    let points =
      try Experiment.chaos ~scales ~caching ~scope ~jobs ~plan config app
      with Invalid_argument msg ->
        Printf.eprintf "flopt: chaos: %s\n" msg;
        exit 2
    in
    Report.print_chaos ~app:app.App.name ~seed points
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(const run $ app_arg $ seed_arg $ faults_arg $ scales_arg $ caching_arg
          $ scope_arg $ jobs_arg $ compute_nodes_arg $ io_nodes_arg
          $ storage_nodes_arg $ block_elems_arg)

(* traffic/slo shared plumbing: both commands drive the same open-loop
   engine, so they share every workload argument.  APP-MIX is parsed by
   hand (not Arg.conv) so an unknown app or malformed spec exits 2 like
   every other flopt usage error, not cmdliner's 124. *)
module Traffic_args = struct
  let mix_pos n =
    Arg.(value & pos n string "suite"
         & info [] ~docv:"APP-MIX"
             ~doc:"Comma-separated application names in popularity order \
                   (head = most popular), or $(b,suite) for the whole \
                   16-application suite.")

  let tenants =
    Arg.(value & opt int 64 & info [ "tenants" ] ~docv:"N" ~doc:"Number of tenants.")

  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"S"
             ~doc:"Master seed; every tenant draws from its own splitmix64 \
                   substream derived from it (replay-exact).")

  let duration =
    Arg.(value & opt float 10.
         & info [ "duration" ] ~docv:"SECONDS" ~doc:"Modeled window per tenant.")

  let rate =
    Arg.(value & opt float 2.
         & info [ "rate" ] ~docv:"JOBS/S" ~doc:"Mean job arrival rate per tenant.")

  let zipf =
    Arg.(value & opt float 1.1
         & info [ "zipf-s" ] ~docv:"S"
             ~doc:"Zipf exponent of app popularity over the mix (higher = \
                   more skew towards the head app).")

  let opt_share =
    Arg.(value & opt float 0.5
         & info [ "opt-share" ] ~docv:"FRAC"
             ~doc:"Fraction of tenants given the compiler-optimized layouts.")

  let noisy =
    Arg.(value & opt float 1.
         & info [ "noisy" ] ~docv:"MULT"
             ~doc:"Arrival-rate multiplier for tenant 0 (the noisy neighbor); \
                   1 disables it.")

  let burst =
    Arg.(value & opt (some (pair float float)) None
         & info [ "burst" ] ~docv:"ON,OFF"
             ~doc:"Use an on/off bursty arrival process with mean on/off \
                   sojourns of $(docv) modeled seconds (mean rate is \
                   preserved).  Default: plain Poisson.")

  let sample =
    Arg.(value & opt int 8
         & info [ "sample" ] ~docv:"N"
             ~doc:"Profile-mode sampling factor for service-kernel compilation.")

  let max_rows =
    Arg.(value & opt int 8
         & info [ "max-rows" ] ~docv:"N"
             ~doc:"Per-tenant table rows to print (top $(docv) by requests).")

  let windows =
    Arg.(value & opt int 1
         & info [ "windows" ] ~docv:"N"
             ~doc:"Split the modeled period into $(docv) SLO evaluation \
                   windows; congestion is modeled per window.")

  let faults =
    Arg.(value & opt (some string) None
         & info [ "faults" ] ~docv:"SPEC"
             ~doc:"Fault plan baked into the service kernels (same grammar \
                   as $(b,flopt chaos)); retry latencies reach the modeled \
                   clocks and failed reads burn the error budget.")

  let fault_seed =
    Arg.(value & opt int 42
         & info [ "fault-seed" ] ~docv:"S" ~doc:"Seed for the $(b,--faults) plan.")

  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Enable request-level sampled tracing and write the sampled \
                   traces as JSONL to $(docv) (render with $(b,flopt trace)).  \
                   Off by default; untraced runs pay zero overhead and print \
                   byte-identical reports.")

  let sample_rate =
    Arg.(value
         & opt int Flo_traffic.Tracer.default.Flo_traffic.Tracer.sample_rate
         & info [ "sample-rate" ] ~docv:"N"
             ~doc:"Head-sample 1 in $(docv) requests per tenant.  Tail \
                   sampling (SLO-breaching, faulted/timed-out, and \
                   per-tenant-window slowest requests) is always on.  Only \
                   meaningful with $(b,--trace-out).")

  let trace_breach =
    Arg.(value
         & opt float Flo_traffic.Tracer.default.Flo_traffic.Tracer.breach_us
         & info [ "trace-breach-us" ] ~docv:"US"
             ~doc:"Tail-sample every request slower than $(docv) modeled \
                   microseconds.  Only meaningful with $(b,--trace-out).")

  let shed_arg ~default =
    Arg.(value & opt string default
         & info [ "shed" ] ~docv:"POLICY"
             ~doc:"Overload shedding policy: $(b,off), $(b,fail-fast) \
                   (reject excess jobs), $(b,priority) (shed the default \
                   cohort first, protecting optimized tenants), or \
                   $(b,brownout) (serve excess jobs degraded instead of \
                   rejecting them).")

  let shed = shed_arg ~default:"off"

  let capacity =
    Arg.(value & opt float 1.0
         & info [ "capacity" ] ~docv:"UTIL"
             ~doc:"Admission capacity target: admitted service demand is \
                   kept at or under $(docv) x the window length per (shard, \
                   window), bounding accepted requests' congestion \
                   multiplier by 1+$(docv).  Only meaningful with \
                   $(b,--shed).")

  let breaker =
    Arg.(value & opt (some string) None
         & info [ "breaker" ] ~docv:"SPEC"
             ~doc:"Arm a per-storage-node circuit breaker, \
                   $(b,open=R,close=R,cooldown=W,probe=F[,node=N]) (any \
                   subset of keys; defaults open=0.1, close=0.02, \
                   cooldown=2, probe=0.2, all nodes).  An open node's \
                   traffic takes the failover path to the next healthy \
                   node.")

  (* --shed off with no --breaker means overload = None: the engine runs
     its identity controller and the report has no overload section *)
  let overload_params ~cmd shed_spec capacity breaker_spec =
    let breaker =
      match breaker_spec with
      | None -> None
      | Some s -> (
        match Flo_faults.Breaker.of_string s with
        | Ok b -> Some b
        | Error msg ->
          Printf.eprintf "flopt: %s: bad --breaker spec: %s\n" cmd msg;
          exit 2)
    in
    let shed =
      match shed_spec with
      | "off" -> None
      | s -> (
        match Flo_traffic.Overload.policy_of_string s with
        | Ok p -> Some p
        | Error msg ->
          Printf.eprintf "flopt: %s: bad --shed policy: %s\n" cmd msg;
          exit 2)
    in
    match (shed, breaker) with
    | None, None -> None
    | _ ->
      let o =
        {
          Flo_traffic.Overload.default with
          Flo_traffic.Overload.shed;
          (* breaker-only mode routes but never sheds *)
          capacity = (if shed = None then infinity else capacity);
          breaker;
        }
      in
      (match Flo_traffic.Overload.validate o with
      | Ok () -> ()
      | Error msg ->
        Printf.eprintf "flopt: %s: %s\n" cmd msg;
        exit 2);
      Some o

  let write_traces path traces =
    write_file path (fun oc ->
        let buf = Buffer.create 4096 in
        List.iter
          (fun t ->
            Buffer.clear buf;
            Flo_obs.Trace.to_buffer buf t;
            Buffer.add_char buf '\n';
            Buffer.output_buffer oc buf)
          traces);
    Printf.printf "%d sampled trace(s) written to %s (render with `flopt trace %s`)\n"
      (List.length traces) path path

  let parse_mix ~cmd mix_spec =
    if mix_spec = "suite" then Suite.all
    else
      List.map
        (fun name ->
          match Suite.find (String.trim name) with
          | app -> app
          | exception Not_found ->
            Printf.eprintf "flopt: %s: unknown application %S (try `flopt apps')\n"
              cmd name;
            exit 2)
        (String.split_on_char ',' mix_spec)

  (* precise flag-level validation ahead of Engine.validate: the engine's
     messages name record fields, these name the flags the user typed *)
  let check_flag ~cmd flag ok render v =
    if not (ok v) then begin
      Printf.eprintf "flopt: %s: --%s must be positive (got %s)\n" cmd flag (render v);
      exit 2
    end

  let params ~cmd mix_spec tenants seed duration rate zipf_s opt_share noisy burst
      sample windows faults_spec fault_seed trace_out sample_rate trace_breach_us
      ?(shed_spec = "off") ?capacity_arg ?breaker_spec () =
    check_flag ~cmd "duration" (fun v -> v > 0.) (Printf.sprintf "%g") duration;
    check_flag ~cmd "rate" (fun v -> v > 0.) (Printf.sprintf "%g") rate;
    check_flag ~cmd "windows" (fun v -> v >= 1) string_of_int windows;
    let mix = parse_mix ~cmd mix_spec in
    let process =
      match burst with
      | None -> Flo_traffic.Arrivals.Poisson
      | Some (on_s, off_s) -> Flo_traffic.Arrivals.Bursty { on_s; off_s }
    in
    let faults =
      match faults_spec with
      | None -> Flo_faults.Fault_plan.empty
      | Some spec -> (
        match Flo_faults.Fault_plan.of_string spec with
        | Ok p -> Flo_faults.Fault_plan.with_seed p fault_seed
        | Error msg ->
          Printf.eprintf "flopt: %s: bad --faults spec: %s\n" cmd msg;
          exit 2)
    in
    let params =
      {
        (Flo_traffic.Engine.default_params ~mix) with
        Flo_traffic.Engine.tenants;
        seed;
        duration_s = duration;
        rate;
        zipf_s;
        opt_share;
        noisy_boost = noisy;
        process;
        sample;
        windows;
        faults;
        trace =
          (match trace_out with
          | None -> None
          | Some _ ->
            Some
              {
                Flo_traffic.Tracer.default with
                Flo_traffic.Tracer.sample_rate;
                breach_us = trace_breach_us;
              });
        overload =
          overload_params ~cmd shed_spec
            (Option.value capacity_arg ~default:1.0)
            breaker_spec;
      }
    in
    (match Flo_traffic.Engine.validate params with
    | Ok () -> ()
    | Error msg ->
      Printf.eprintf "flopt: %s: %s\n" cmd msg;
      exit 2);
    params

  let parse_slo ~cmd spec =
    match Flo_obs.Slo.parse spec with
    | Ok s -> s
    | Error msg ->
      Printf.eprintf "flopt: %s: bad SLO spec %S: %s\n" cmd spec msg;
      exit 2
end

let traffic_cmd =
  let doc =
    "Drive an open-loop multi-tenant workload: tenants pick applications \
     Zipfian-by-rank from $(i,APP-MIX), jobs arrive as seeded Poisson (or \
     on/off bursty) processes, and each tenant runs the default or the \
     compiler-optimized layouts.  The hierarchy is sharded by storage node \
     and simulated on the worker-domain pool with batched service kernels, \
     so hundreds of millions of modeled requests replay in seconds.  With \
     $(b,--slo) the run is also scored against a service-level objective \
     (burn rates, error budget, multi-window alerts).  Everything except \
     the $(b,[wall]) line is byte-identical for a given seed at every \
     $(b,--jobs) value."
  in
  let slo_arg =
    Arg.(value & opt (some string) None
         & info [ "slo" ] ~docv:"SPEC"
             ~doc:"Score the run against an SLO, e.g. $(b,p99<800us\\@99.9) \
                   (p99 latency under 800 us in 99.9% of windows) or \
                   $(b,err<0.5%\\@99).  See $(b,flopt slo).")
  in
  let run mix_spec tenants seed duration rate zipf_s opt_share noisy burst sample
      max_rows windows faults_spec fault_seed trace_out sample_rate trace_breach
      shed capacity breaker slo jobs =
    let slo_spec = Option.map (Traffic_args.parse_slo ~cmd:"traffic") slo in
    let params =
      Traffic_args.params ~cmd:"traffic" mix_spec tenants seed duration rate zipf_s
        opt_share noisy burst sample windows faults_spec fault_seed trace_out
        sample_rate trace_breach ~shed_spec:shed ~capacity_arg:capacity
        ?breaker_spec:breaker ()
    in
    let jobs = resolve_jobs jobs in
    let span = Flo_obs.Span.start "traffic" in
    let result = Flo_traffic.Engine.simulate ~jobs ~config params in
    let wall_s = Flo_obs.Span.stop span *. 1e-6 in
    Flo_traffic.Traffic_report.print ~max_rows result;
    (* the one machine-dependent line: kernel compilation plus the engine *)
    Printf.printf "[wall] engine %.3f s, %.3g modeled requests/s\n" wall_s
      (if wall_s > 0. then
         float_of_int result.Flo_traffic.Engine.total_requests /. wall_s
       else 0.);
    (match slo_spec with
    | None -> ()
    | Some spec ->
      let e = Flo_traffic.Slo_eval.evaluate spec result in
      print_newline ();
      Flo_traffic.Slo_report.print ~max_rows result e);
    Option.iter
      (fun path ->
        Traffic_args.write_traces path result.Flo_traffic.Engine.traces)
      trace_out
  in
  Cmd.v (Cmd.info "traffic" ~doc)
    Term.(const run $ Traffic_args.mix_pos 0 $ Traffic_args.tenants
          $ Traffic_args.seed $ Traffic_args.duration $ Traffic_args.rate
          $ Traffic_args.zipf $ Traffic_args.opt_share $ Traffic_args.noisy
          $ Traffic_args.burst $ Traffic_args.sample $ Traffic_args.max_rows
          $ Traffic_args.windows $ Traffic_args.faults $ Traffic_args.fault_seed
          $ Traffic_args.trace_out $ Traffic_args.sample_rate
          $ Traffic_args.trace_breach $ Traffic_args.shed $ Traffic_args.capacity
          $ Traffic_args.breaker $ slo_arg $ jobs_arg)

let slo_cmd =
  let doc =
    "Evaluate a service-level objective over the multi-tenant traffic \
     engine: the modeled period is split into windows, each window is \
     scored good or bad against the objective (latency threshold at a \
     quantile, or error-rate ceiling), and burn rates, error-budget \
     remaining, and fast/slow burn-rate alerts are reported per tenant, \
     per layout cohort, and fleet-wide.  All clocks are modeled, so the \
     report is byte-identical at every $(b,--jobs) value.  With \
     $(b,--faults), failed reads burn the error budget and retry latency \
     burns the latency budget."
  in
  let spec_pos =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"SPEC"
             ~doc:"SLO spec: $(b,pQ<Nunit\\@T) (e.g. $(b,p99<800us\\@99.9): the \
                   p99 latency stays under 800 us in 99.9% of windows; units \
                   us/ms/s) or $(b,err<N%\\@T) (e.g. $(b,err<0.5%\\@99)).")
  in
  let run spec_str mix_spec tenants seed duration rate zipf_s opt_share noisy burst
      sample max_rows windows faults_spec fault_seed trace_out sample_rate
      trace_breach shed capacity breaker jobs =
    let spec = Traffic_args.parse_slo ~cmd:"slo" spec_str in
    let params =
      Traffic_args.params ~cmd:"slo" mix_spec tenants seed duration rate zipf_s
        opt_share noisy burst sample windows faults_spec fault_seed trace_out
        sample_rate trace_breach ~shed_spec:shed ~capacity_arg:capacity
        ?breaker_spec:breaker ()
    in
    let jobs = resolve_jobs jobs in
    let result = Flo_traffic.Engine.simulate ~jobs ~config params in
    let e = Flo_traffic.Slo_eval.evaluate spec result in
    Flo_traffic.Slo_report.print ~max_rows result e;
    Option.iter
      (fun path ->
        Traffic_args.write_traces path result.Flo_traffic.Engine.traces)
      trace_out;
    if not e.Flo_traffic.Slo_eval.fleet.Flo_traffic.Slo_eval.verdict
             .Flo_obs.Slo.compliant
    then exit 1
  in
  Cmd.v (Cmd.info "slo" ~doc)
    Term.(const run $ spec_pos $ Traffic_args.mix_pos 1 $ Traffic_args.tenants
          $ Traffic_args.seed $ Traffic_args.duration $ Traffic_args.rate
          $ Traffic_args.zipf $ Traffic_args.opt_share $ Traffic_args.noisy
          $ Traffic_args.burst $ Traffic_args.sample $ Traffic_args.max_rows
          $ Traffic_args.windows $ Traffic_args.faults $ Traffic_args.fault_seed
          $ Traffic_args.trace_out $ Traffic_args.sample_rate
          $ Traffic_args.trace_breach $ Traffic_args.shed $ Traffic_args.capacity
          $ Traffic_args.breaker $ jobs_arg)

let overload_cmd =
  let doc =
    "Sweep offered load over the multi-tenant traffic engine and compare \
     the uncontrolled open-loop baseline against the overload-controlled \
     run at each multiplier of $(b,--rate): baseline p99 (which collapses \
     — congestion grows linearly with offered demand), accepted-request \
     p99, goodput and shed fraction under admission control.  All modeled, \
     so the table and verdict are byte-identical at every $(b,--jobs) \
     value.  Exits 1 unless degradation is graceful: bounded \
     accepted-request p99 and near-peak goodput at the highest load."
  in
  let loads_arg =
    Arg.(value & opt string "1,2,4,8,16,32"
         & info [ "loads" ] ~docv:"M1,M2,..."
             ~doc:"Comma-separated offered-load multipliers applied to \
                   $(b,--rate), in sweep order.")
  in
  let run mix_spec tenants seed duration rate zipf_s opt_share noisy burst sample
      windows faults_spec fault_seed shed capacity breaker loads jobs =
    let cmd = "overload" in
    let load_list =
      List.map
        (fun s ->
          match int_of_string_opt (String.trim s) with
          | Some m when m >= 1 -> m
          | _ ->
            Printf.eprintf
              "flopt: %s: bad --loads entry %S (positive integers)\n" cmd s;
            exit 2)
        (String.split_on_char ',' loads)
    in
    let params =
      Traffic_args.params ~cmd mix_spec tenants seed duration rate zipf_s
        opt_share noisy burst sample windows faults_spec fault_seed None
        Flo_traffic.Tracer.default.Flo_traffic.Tracer.sample_rate
        Flo_traffic.Tracer.default.Flo_traffic.Tracer.breach_us ~shed_spec:shed
        ~capacity_arg:capacity ?breaker_spec:breaker ()
    in
    let o =
      match params.Flo_traffic.Engine.overload with
      | Some o -> o
      | None ->
        Printf.eprintf
          "flopt: %s: overload controls are off (pass --shed or --breaker)\n" cmd;
        exit 2
    in
    let jobs = resolve_jobs jobs in
    (* per load step: the same (seed, mix, arrivals) with rate scaled —
       first open-loop (no controls), then controlled; determinism means
       both see byte-identical arrival plans *)
    let rows =
      List.map
        (fun m ->
          let pm =
            {
              params with
              Flo_traffic.Engine.rate =
                params.Flo_traffic.Engine.rate *. float_of_int m;
              overload = None;
            }
          in
          let base = Flo_traffic.Engine.simulate ~jobs ~config pm in
          let ctl =
            Flo_traffic.Engine.simulate ~jobs ~config
              { pm with Flo_traffic.Engine.overload = Some o }
          in
          (m, base, ctl))
        load_list
    in
    let stats (ctl : Flo_traffic.Engine.result) =
      match ctl.Flo_traffic.Engine.overload with
      | Some ol -> ol
      | None -> assert false
    in
    print_endline
      (Flo_engine.Report.table
         ~header:
           [ "load"; "offered rps"; "base p99 us"; "acc p99 us"; "goodput rps";
             "shed"; "browned"; "retry-supp" ]
         (List.map
            (fun (m, (base : Flo_traffic.Engine.result), ctl) ->
              let ol = stats ctl in
              [
                Printf.sprintf "%dx" m;
                Printf.sprintf "%.0f" base.Flo_traffic.Engine.offered_rps;
                Printf.sprintf "%.1f" base.Flo_traffic.Engine.agg_p99_us;
                Printf.sprintf "%.1f" ctl.Flo_traffic.Engine.agg_p99_us;
                Printf.sprintf "%.0f" ol.Flo_traffic.Engine.ol_goodput_rps;
                Printf.sprintf "%.1f%%"
                  (100. *. ol.Flo_traffic.Engine.ol_shed_fraction);
                string_of_int ol.Flo_traffic.Engine.ol_browned_jobs;
                string_of_int ol.Flo_traffic.Engine.ol_retry_suppressed_windows;
              ])
            rows));
    (* graceful degradation: accepted-request p99 stays bounded across the
       sweep (admitted multipliers are capped at 1+capacity, so growth is
       bounded by that cap's headroom over the lightest load) and goodput
       at the heaviest load holds near its peak, while the uncontrolled
       baseline's p99 grows without bound *)
    let acc_p99 (_, _, ctl) = ctl.Flo_traffic.Engine.agg_p99_us in
    let goodput row =
      let _, _, ctl = row in
      (stats ctl).Flo_traffic.Engine.ol_goodput_rps
    in
    let first = List.hd rows in
    let last = List.nth rows (List.length rows - 1) in
    let _, base_last, _ = last in
    let p99_growth =
      if acc_p99 first > 0. then acc_p99 last /. acc_p99 first else 1.
    in
    let peak = List.fold_left (fun a r -> Float.max a (goodput r)) 0. rows in
    let goodput_floor = if peak > 0. then goodput last /. peak else 1. in
    let collapse =
      if acc_p99 last > 0. then
        base_last.Flo_traffic.Engine.agg_p99_us /. acc_p99 last
      else 1.
    in
    let graceful = p99_growth <= 2.5 && goodput_floor >= 0.75 in
    print_newline ();
    Printf.printf
      "overload sweep %s tenants=%d seed=%d %s loads=%s: p99_growth=%.2fx \
       goodput_floor=%.2f collapse=%.1fx verdict=%s\n"
      (Flo_traffic.Traffic_report.mix_names params)
      params.Flo_traffic.Engine.tenants params.Flo_traffic.Engine.seed
      (Flo_traffic.Overload.describe o)
      (String.concat "," (List.map string_of_int load_list))
      p99_growth goodput_floor collapse
      (if graceful then "GRACEFUL" else "COLLAPSED");
    if not graceful then exit 1
  in
  Cmd.v (Cmd.info "overload" ~doc)
    Term.(const run $ Traffic_args.mix_pos 0 $ Traffic_args.tenants
          $ Traffic_args.seed $ Traffic_args.duration $ Traffic_args.rate
          $ Traffic_args.zipf $ Traffic_args.opt_share $ Traffic_args.noisy
          $ Traffic_args.burst $ Traffic_args.sample $ Traffic_args.windows
          $ Traffic_args.faults $ Traffic_args.fault_seed
          $ Traffic_args.shed_arg ~default:"fail-fast" $ Traffic_args.capacity
          $ Traffic_args.breaker $ loads_arg $ jobs_arg)

let drift_cmd =
  let doc =
    "Watch for layout drift: compare observation windows of a workload \
     against the baseline the compiler-optimized layouts were built for \
     (per-layer miss rates, cross-thread sharing and its matrix, \
     model-vs-run fidelity) and recommend re-running the layout pass when \
     the windowed score clears the hysteresis thresholds.  Without \
     $(i,APP), sweeps the whole 16-application suite.  Exits 1 when \
     re-layout is recommended anywhere."
  in
  let suite_app_arg =
    Arg.(value & pos 0 (some app_conv) None
         & info [] ~docv:"APP" ~doc:"Application name (omit to sweep the whole suite).")
  in
  let mapping_arg =
    Arg.(value & opt int 0
         & info [ "mapping" ] ~docv:"SEED"
             ~doc:"Observe the workload under the pseudo-random \
                   thread-to-node mapping of $(docv); 0 keeps the baseline \
                   mapping.")
  in
  let shifted_arg =
    Arg.(value & flag
         & info [ "shifted" ]
             ~doc:"Synthesize a phase-shifted workload: the observation \
                   windows access data laid out row-major (the original \
                   file layouts) instead of the layouts the pass optimized \
                   for this phase — the access pattern the installed \
                   layouts no longer match.")
  in
  let windows_arg =
    Arg.(value & opt int 4
         & info [ "windows" ] ~docv:"N"
             ~doc:"Observation windows to fold through the detector.")
  in
  let sample_arg =
    Arg.(value & opt int 1
         & info [ "sample" ] ~docv:"N" ~doc:"Profile-mode sampling factor.")
  in
  let enter_arg =
    Arg.(value & opt float Flo_fidelity.Drift.default_config.Flo_fidelity.Drift.enter
         & info [ "enter" ] ~docv:"SCORE"
             ~doc:"Score a window must reach to count towards recommending.")
  in
  let exit_arg =
    Arg.(value & opt float Flo_fidelity.Drift.default_config.Flo_fidelity.Drift.exit_
         & info [ "exit" ] ~docv:"SCORE"
             ~doc:"Score a window must stay at or under to count towards \
                   clearing.")
  in
  let streak_arg =
    Arg.(value
         & opt int
             Flo_fidelity.Drift.default_config.Flo_fidelity.Drift.enter_streak
         & info [ "streak" ] ~docv:"N"
             ~doc:"Consecutive qualifying windows needed to flip the \
                   recommendation (both directions).")
  in
  let run app mapping_seed shifted windows sample enter exit_ streak jobs =
    if windows < 1 then begin
      prerr_endline "flopt: drift: --windows must be positive";
      exit 2
    end;
    if sample < 1 then begin
      prerr_endline "flopt: drift: --sample must be positive";
      exit 2
    end;
    if mapping_seed < 0 then begin
      prerr_endline "flopt: drift: --mapping must be non-negative";
      exit 2
    end;
    let dconfig =
      {
        Flo_fidelity.Drift.enter;
        exit_;
        enter_streak = streak;
        exit_streak = streak;
      }
    in
    (match Flo_fidelity.Drift.validate_config dconfig with
    | Ok () -> ()
    | Error msg ->
      Printf.eprintf "flopt: drift: %s\n" msg;
      exit 2);
    let mapping =
      if mapping_seed = 0 then None
      else Some (Experiment.random_mapping ~seed:mapping_seed config)
    in
    let watch app =
      let layouts = Experiment.inter_layouts config app in
      let observed_layouts =
        if shifted then Experiment.default_layouts app else layouts
      in
      let baseline = Experiment.drift_signal ~sample ~layouts config app in
      let observed =
        Experiment.drift_signal ?mapping ~sample ~layouts:observed_layouts config
          app
      in
      let detector = Flo_fidelity.Drift.create ~config:dconfig ~baseline () in
      (* every window of this run sees the same (deterministic) shifted
         workload; the fold still exercises the streak hysteresis *)
      let rec fold d n = if n = 0 then d else fold (Flo_fidelity.Drift.observe d observed) (n - 1) in
      fold detector windows
    in
    let apps = match app with Some a -> [ a ] | None -> Suite.all in
    let jobs = resolve_jobs jobs in
    let detectors = Experiment.map_apps ~jobs watch apps in
    let width =
      List.fold_left (fun acc a -> max acc (String.length a.App.name)) 0 apps
    in
    List.iter2
      (fun a d ->
        Printf.printf "%-*s %s\n" width a.App.name
          (Flo_fidelity.Drift.status_line d))
      apps detectors;
    let any = List.exists Flo_fidelity.Drift.recommended detectors in
    print_endline
      (Printf.sprintf "drift verdict apps=%d windows=%d mapping=%d shifted=%b: %s"
         (List.length apps) windows mapping_seed shifted
         (if any then "RE-LAYOUT RECOMMENDED" else "no drift"));
    if any then exit 1
  in
  Cmd.v (Cmd.info "drift" ~doc)
    Term.(const run $ suite_app_arg $ mapping_arg $ shifted_arg $ windows_arg
          $ sample_arg $ enter_arg $ exit_arg $ streak_arg $ jobs_arg)

let topology_cmd =
  let doc = "Print the default (scaled Table 1) system configuration." in
  let run () =
    Format.printf "%a@." Flo_storage.Topology.pp config.Config.topology;
    Printf.printf "block = %d elements; client buffer = %d blocks/thread\n"
      config.Config.topology.Flo_storage.Topology.block_elems config.Config.client_buffer_blocks
  in
  Cmd.v (Cmd.info "topology" ~doc) Term.(const run $ const ())

let () =
  let doc = "compiler-directed file layout optimization for hierarchical storage (SC'12 reproduction)" in
  let info = Cmd.info "flopt" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ apps_cmd; plan_cmd; run_cmd; bench_cmd; analyze_cmd; bench_diff_cmd;
            chaos_cmd; fidelity_cmd; drift_cmd; layout_cmd; trace_csv_cmd;
            trace_cmd; traffic_cmd; slo_cmd; overload_cmd; topology_cmd ]))
