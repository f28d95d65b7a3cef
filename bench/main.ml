(* Benchmark harness: the deterministic trajectory manifest and the
   per-commit trend page.

     dune exec bench/main.exe -- json --out F [--apps a,b] [--sample N] [--jobs N]
     dune exec bench/main.exe -- history --out H --commit ID --manifest F [--page P]

   The paper's tables, figures and claims are `flopt reproduce [SECTION...]`;
   wall-clock timing is bench/perf's. *)

open Flo_workloads
open Flo_engine

let config = Config.default

let apps = Suite.all

(* `--flag value` pairs among [known], looked up by flag (the last of a
   repeated flag wins); anything else is a usage error *)
let flags ~cmd known args =
  let rec parse acc = function
    | flag :: v :: rest when List.mem flag known -> parse ((flag, v) :: acc) rest
    | [] -> acc
    | arg :: _ ->
      Printf.eprintf "bench %s: unknown argument %S\n" cmd arg;
      exit 2
  in
  let given = parse [] args in
  fun flag -> List.assoc_opt flag given

(* ---- json: machine-readable trajectory manifest (Bench_schema) --------------------------- *)

(* an unwritable output path is a usage error, like the CLI's
   `flopt: cannot write` *)
let write_or_exit ~cmd path write =
  try write ()
  with Sys_error msg ->
    Printf.eprintf "bench %s: cannot write %s: %s\n" cmd path msg;
    exit 2

(* `bench -- json --out FILE [--apps a,b] [--sample N] [--jobs N]` records
   the deterministic numbers of this invocation as a flopt-bench manifest
   for `flopt bench-diff`.  Per-app modeled quantities are gated (CI
   compares them against bench/baseline.json); the traffic, SLO, trace and
   overload numbers ride along ungated as trajectory data.  Nothing here
   reads a clock — wall time is bench/perf's — so the manifest is
   byte-identical across runs and --jobs values.  Collection fans over apps
   on a domain pool (Bench_json); with --jobs > 1 the per-app metrics are
   re-collected at --jobs 1 and the two must agree exactly — the
   determinism self-check. *)
let json_mode args =
  let flag = flags ~cmd:"json" [ "--out"; "--apps"; "--sample"; "--jobs" ] args in
  let positive name =
    match Option.map int_of_string_opt (flag name) with
    | None -> None
    | Some (Some n) when n >= 1 -> Some n
    | Some _ ->
      Printf.eprintf "bench json: %s must be a positive integer\n" name;
      exit 2
  in
  let sample = Option.value (positive "--sample") ~default:1 in
  (* an explicit --jobs never reads FLOPT_JOBS *)
  let jobs =
    match positive "--jobs" with
    | Some n -> n
    | None -> (
      match Parallel.default_jobs () with
      | Ok n -> n
      | Error msg ->
        Printf.eprintf "bench json: %s\n" msg;
        exit 2)
  in
  let out =
    match flag "--out" with
    | Some o -> o
    | None ->
      prerr_endline "bench json: --out FILE is required";
      exit 2
  in
  let selected =
    match flag "--apps" with
    | None -> apps
    | Some names ->
      List.map
        (fun name ->
          match List.find_opt (fun a -> a.App.name = name) apps with
          | Some a -> a
          | None ->
            Printf.eprintf "bench json: unknown application %S\n" name;
            exit 2)
        (String.split_on_char ',' names)
  in
  let collect jobs =
    Bench_json.collect ~jobs ~sample
      ~progress:(fun name -> Printf.eprintf "bench json: %s...\n%!" name)
      ~config selected
  in
  let manifest = collect jobs in
  if jobs > 1 then begin
    Printf.eprintf "bench json: re-collecting at --jobs 1 (determinism check)...\n%!";
    if collect 1 <> manifest then begin
      Printf.eprintf "bench json: gated metrics differ between --jobs %d and --jobs 1\n"
        jobs;
      exit 1
    end;
    Printf.eprintf "bench json: gated metrics identical across jobs settings\n%!"
  end;
  let ungated app metrics =
    List.map
      (fun (name, value, unit_) -> { Bench_schema.app; name; value; unit_; gated = false })
      metrics
  in
  let traffic_params =
    (* 8 windows so the ride-along SLO metrics see real multi-window
       behavior instead of the degenerate single-window verdict *)
    { (Flo_traffic.Engine.default_params ~mix:selected) with
      Flo_traffic.Engine.sample; windows = 8 }
  in
  Printf.eprintf "bench json: traffic engine...\n%!";
  let traffic = Flo_traffic.Engine.simulate ~jobs ~config traffic_params in
  let traffic_metrics =
    ungated "_traffic"
      [
        ( "modeled_requests",
          float_of_int traffic.Flo_traffic.Engine.total_requests, "req" );
      ]
  in
  let slo_metrics =
    (* fleet SLO health of the same run: trajectory data (it moves whenever
       the modeled engine is meant to improve).  The threshold sits inside
       the run's spread of window p99s, so burn rate and compliance are
       neither pinned at their worst nor at their best *)
    match Flo_obs.Slo.parse "p99<1200ms@99" with
    | Error _ -> []
    | Ok spec ->
      let e = Flo_traffic.Slo_eval.evaluate spec traffic in
      let v = e.Flo_traffic.Slo_eval.fleet.Flo_traffic.Slo_eval.verdict in
      ungated "_slo"
        [
          ("fleet_burn_rate", v.Flo_obs.Slo.burn_rate, "x");
          ("fleet_budget_remaining", v.Flo_obs.Slo.budget_remaining, "frac");
          ("fleet_compliance", v.Flo_obs.Slo.compliance, "frac");
        ]
  in
  let trace_metrics =
    (* sampled tracing: re-run the same traffic params with tracing on and
       report what the sampler kept.  The modeled numbers of the traced run
       must be byte-identical to the untraced run above — tracing only ever
       adds exemplars, never counts — so the verdict lines are compared here
       and any divergence aborts the bench. *)
    Printf.eprintf "bench json: traffic engine (traced)...\n%!";
    let params =
      { traffic_params with
        Flo_traffic.Engine.trace =
          Some { Flo_traffic.Tracer.default with Flo_traffic.Tracer.sample_rate = 4096 } }
    in
    let traced = Flo_traffic.Engine.simulate ~jobs ~config params in
    let untraced_line = Flo_traffic.Traffic_report.verdict_line traffic in
    let traced_line = Flo_traffic.Traffic_report.verdict_line traced in
    if untraced_line <> traced_line then begin
      Printf.eprintf
        "bench json: tracing changed modeled numbers:\n  off: %s\n  on:  %s\n"
        untraced_line traced_line;
      exit 2
    end;
    Printf.eprintf "bench json: traced modeled numbers identical to untraced\n%!";
    let traces = traced.Flo_traffic.Engine.traces in
    let sum f = List.fold_left (fun a t -> a + f t) 0 traces in
    ungated "_trace"
      [
        ("sampled_traces", float_of_int (List.length traces), "trace");
        ("sampled_requests", float_of_int (sum (fun t -> t.Flo_obs.Trace.count)), "req");
        ("sampled_spans", float_of_int (sum Flo_obs.Trace.span_count), "span");
      ]
  in
  let overload_metrics =
    (* overload control: a pinned read-error storm at ~8x offered load with
       fail-fast shedding on.  Goodput and the accepted cohort's p99 are the
       headline graceful-degradation trajectory; the shed fraction gives
       them scale.  Long windows relative to the job quantum (15 modeled s
       vs ~1.5 modeled s per job at sample 1024), so the admission
       controller works at whole-job granularity without the quantum
       dominating. *)
    Printf.eprintf "bench json: overload control...\n%!";
    let faults =
      match Flo_faults.Fault_plan.of_string "read-error:rate=0.05" with
      | Ok f -> f
      | Error msg ->
        Printf.eprintf "bench json: internal error: bad fault spec: %s\n" msg;
        exit 2
    in
    let params =
      { (Flo_traffic.Engine.default_params ~mix:selected) with
        Flo_traffic.Engine.tenants = 16; duration_s = 60.; rate = 2.64;
        windows = 4; sample = 1024; faults;
        overload = Some Flo_traffic.Overload.default }
    in
    let result = Flo_traffic.Engine.simulate ~jobs ~config params in
    let ol =
      match result.Flo_traffic.Engine.overload with
      | Some ol -> ol
      | None ->
        Printf.eprintf "bench json: internal error: overload run lost its stats\n";
        exit 2
    in
    ungated "_overload"
      [
        ("goodput_rps", ol.Flo_traffic.Engine.ol_goodput_rps, "req/s");
        ("shed_fraction", ol.Flo_traffic.Engine.ol_shed_fraction, "frac");
        ("p99_accepted_us", result.Flo_traffic.Engine.agg_p99_us, "us");
      ]
  in
  let manifest =
    { manifest with
      Bench_schema.metrics =
        manifest.Bench_schema.metrics @ traffic_metrics @ slo_metrics @ trace_metrics
        @ overload_metrics }
  in
  (match Bench_schema.validate manifest with
  | Ok () -> ()
  | Error msg ->
    Printf.eprintf "bench json: internal error: invalid manifest: %s\n" msg;
    exit 2);
  write_or_exit ~cmd:"json" out (fun () -> Bench_schema.save out manifest);
  Printf.printf "wrote %s (%d metrics over %d apps, schema %s v%d)\n" out
    (List.length manifest.Bench_schema.metrics)
    (List.length manifest.Bench_schema.apps)
    Bench_schema.schema_name Bench_schema.schema_version

(* ---- history: per-commit trend rows + static trend page ---------------------------------- *)

(* `bench -- history --out FILE --commit ID --manifest MANIFEST [--page P]`
   distills one bench manifest into trend points, upserts them as the row
   for ID in the append-only history, and regenerates the self-contained
   HTML/SVG trend page.  Re-running with the same commit and manifest is
   idempotent: the row is replaced in place, so history and page bytes are
   unchanged. *)
let history_mode args =
  let flag = flags ~cmd:"history" [ "--out"; "--commit"; "--manifest"; "--page" ] args in
  let required name what =
    match flag name with
    | Some v -> v
    | None ->
      Printf.eprintf "bench history: %s %s is required\n" name what;
      exit 2
  in
  let out = required "--out" "FILE" in
  let commit = required "--commit" "ID" in
  let manifest_path = required "--manifest" "MANIFEST" in
  if not (Bench_history.valid_commit commit) then begin
    Printf.eprintf
      "bench history: bad --commit %S (want 1-64 chars of [A-Za-z0-9._-])\n"
      commit;
    exit 2
  end;
  let page =
    match flag "--page" with
    | Some p -> p
    | None ->
      (if Filename.check_suffix out ".json" then Filename.chop_suffix out ".json"
       else out)
      ^ ".html"
  in
  let manifest =
    match Bench_schema.load manifest_path with
    | Ok m -> m
    | Error msg ->
      Printf.eprintf "bench history: cannot load manifest: %s\n" msg;
      exit 2
  in
  let points = Bench_history.metrics_of_manifest manifest in
  if points = [] then begin
    Printf.eprintf "bench history: manifest %s yields no trend points\n"
      manifest_path;
    exit 2
  end;
  let history =
    if Sys.file_exists out then
      match Bench_history.load out with
      | Ok h -> h
      | Error msg ->
        Printf.eprintf "bench history: corrupt history: %s\n" msg;
        exit 2
    else Bench_history.empty
  in
  let history =
    match Bench_history.upsert history ~commit points with
    | Ok h -> h
    | Error msg ->
      Printf.eprintf "bench history: %s\n" msg;
      exit 2
  in
  (* the page first: an unwritable --page must not leave a recorded row
     behind (the page is regenerated from the history on every record) *)
  write_or_exit ~cmd:"history" page (fun () ->
      Flo_obs.Json.write_atomic page (fun oc ->
          output_string oc (Bench_history.render_page history)));
  write_or_exit ~cmd:"history" out (fun () -> Bench_history.save out history);
  Printf.printf "recorded commit %s (%d points) -> %s (%d rows), trend page %s\n"
    commit (List.length points) out
    (List.length history.Bench_history.rows)
    page

(* ---- driver ------------------------------------------------------------------------------ *)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "json" :: rest -> json_mode rest
  | "history" :: rest -> history_mode rest
  | args ->
    Printf.eprintf "bench: %s (modes: json, history; the paper's sections are `flopt reproduce`)\n"
      (match args with [] -> "no mode given" | mode :: _ -> Printf.sprintf "unknown mode %S" mode);
    exit 2
