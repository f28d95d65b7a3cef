open Flo_engine

(* Rendering for traffic-engine results.  Everything is a pure function of
   the result's modeled fields, so the printed report is byte-identical at
   every --jobs value — CI pins {!verdict_line} and diffs whole reports. *)

let mix_names (p : Engine.params) =
  String.concat "," (List.map (fun a -> a.Flo_workloads.App.name) p.Engine.mix)

let process_to_string = function
  | Arrivals.Poisson -> "poisson"
  | Arrivals.Bursty { on_s; off_s } ->
    Printf.sprintf "bursty(on=%.3gs,off=%.3gs)" on_s off_s

let opt_pct = function
  | None -> "n/a"
  | Some v -> Printf.sprintf "%+.1f%%" v

(* largest-count rank of a tenant, ties to the more popular (lower) rank *)
let dominant_rank rank_jobs =
  let best = ref 0 in
  Array.iteri (fun r j -> if j > rank_jobs.(!best) then best := r) rank_jobs;
  !best

let header_line (r : Engine.result) =
  let p = r.Engine.params in
  Printf.sprintf
    "traffic: mix=%s tenants=%d duration=%.3gs rate=%.3g/s zipf-s=%.3g \
     opt-share=%.3g noisy=%.3gx arrivals=%s seed=%d shards=%d"
    (mix_names p) p.Engine.tenants p.Engine.duration_s p.Engine.rate p.Engine.zipf_s
    p.Engine.opt_share p.Engine.noisy_boost
    (process_to_string p.Engine.process)
    p.Engine.seed (Array.length r.Engine.shards)

let tenant_rows ?(max_rows = 8) (r : Engine.result) =
  let p = r.Engine.params in
  let apps = Array.of_list p.Engine.mix in
  let by_requests =
    List.sort
      (fun (a : Engine.tenant_stats) b ->
        compare (b.Engine.requests, a.Engine.tenant) (a.Engine.requests, b.Engine.tenant))
      (Array.to_list r.Engine.tenants_stats)
  in
  let take =
    let rec go n = function
      | [] -> []
      | _ when n = 0 -> []
      | x :: rest -> x :: go (n - 1) rest
    in
    go (max 0 max_rows) by_requests
  in
  List.map
    (fun (s : Engine.tenant_stats) ->
      let app =
        if s.Engine.jobs = 0 || Array.length s.Engine.rank_jobs = 0 then "-"
        else apps.(dominant_rank s.Engine.rank_jobs).Flo_workloads.App.name
      in
      [
        string_of_int s.Engine.tenant;
        string_of_int s.Engine.shard;
        (if s.Engine.optimized then "inter" else "default");
        app;
        string_of_int s.Engine.jobs;
        string_of_int s.Engine.requests;
        Report.f1 s.Engine.mean_us;
        Report.f1 s.Engine.p50_us;
        Report.f1 s.Engine.p99_us;
      ])
    take

let shard_rows (r : Engine.result) =
  Array.to_list
    (Array.map
       (fun (s : Engine.shard_stats) ->
         [
           string_of_int s.Engine.shard;
           string_of_int s.Engine.shard_tenants;
           string_of_int s.Engine.shard_jobs;
           string_of_int s.Engine.shard_requests;
           Report.f3 s.Engine.utilization;
           Report.f3 s.Engine.multiplier;
         ])
       r.Engine.shards)

(* one row per shard of the overload-control ledger; "-" when no breaker
   is armed on the shard *)
let overload_rows (ol : Engine.overload_stats) =
  Array.to_list
    (Array.mapi
       (fun s cells ->
         let sum f = Array.fold_left (fun a c -> a + f c) 0 cells in
         let offered = sum (fun c -> c.Engine.aw_offered_jobs) in
         let admitted = sum (fun c -> c.Engine.aw_admitted_jobs) in
         let browned = sum (fun c -> c.Engine.aw_browned_jobs) in
         let shed = sum (fun c -> c.Engine.aw_shed_jobs) in
         let routed_in = sum (fun c -> c.Engine.aw_routed_in_jobs) in
         let routed_out = sum (fun c -> c.Engine.aw_routed_out_jobs) in
         let suppressed = sum (fun c -> if c.Engine.aw_retry_suppressed then 1 else 0) in
         let open_w =
           sum (fun c ->
               match c.Engine.aw_breaker with
               | Some (Flo_faults.Breaker.Open _) -> 1
               | _ -> 0)
         in
         let final =
           match cells.(Array.length cells - 1).Engine.aw_breaker with
           | None -> "-"
           | Some st -> Flo_faults.Breaker.state_to_string st
         in
         [
           string_of_int s;
           string_of_int offered;
           string_of_int admitted;
           string_of_int browned;
           string_of_int shed;
           string_of_int routed_in;
           string_of_int routed_out;
           string_of_int suppressed;
           string_of_int open_w;
           final;
         ])
       ol.Engine.ol_admissions)

let overload_line (r : Engine.result) (ol : Engine.overload_stats) =
  Printf.sprintf
    "overload %s: offered=%d admitted=%d shed=%d (%.1f%%) browned_jobs=%d \
     failover_jobs=%d retry_suppressed_windows=%d goodput=%.0frps accepted_p99=%.1fus"
    (Overload.describe ol.Engine.ol_params)
    ol.Engine.ol_offered_requests ol.Engine.ol_admitted_requests
    ol.Engine.ol_shed_requests
    (100. *. ol.Engine.ol_shed_fraction)
    ol.Engine.ol_browned_jobs ol.Engine.ol_failover_jobs
    ol.Engine.ol_retry_suppressed_windows ol.Engine.ol_goodput_rps
    r.Engine.agg_p99_us

let verdict_line (r : Engine.result) =
  let p = r.Engine.params in
  Printf.sprintf
    "traffic %s tenants=%d seed=%d: requests=%d offered_rps=%.0f p50=%.1fus \
     p99=%.1fus fairness=%.3f noisy_p99=%s opt_p50_adv=%s"
    (mix_names p) p.Engine.tenants p.Engine.seed r.Engine.total_requests
    r.Engine.offered_rps r.Engine.agg_p50_us r.Engine.agg_p99_us r.Engine.fairness
    (opt_pct r.Engine.noisy_p99_delta_pct)
    (opt_pct r.Engine.opt_p50_advantage_pct)

let summary ?max_rows (r : Engine.result) =
  let b = Buffer.create 1024 in
  Buffer.add_string b (header_line r);
  Buffer.add_string b "\n\n";
  Buffer.add_string b "== per-tenant modeled latency (top tenants by requests) ==\n";
  Buffer.add_string b
    (Report.table
       ~header:
         [ "tenant"; "shard"; "layout"; "top app"; "jobs"; "requests"; "mean us";
           "p50 us"; "p99 us" ]
       (tenant_rows ?max_rows r));
  Buffer.add_string b "\n\n== per-shard (storage-node worker domains) ==\n";
  Buffer.add_string b
    (Report.table
       ~header:[ "shard"; "tenants"; "jobs"; "requests"; "utilization"; "multiplier" ]
       (shard_rows r));
  (* the overload section only exists when the subsystem ran, so
     overload-off reports are byte-identical to before it existed *)
  (match r.Engine.overload with
  | None -> ()
  | Some ol ->
    Buffer.add_string b
      (Printf.sprintf "\n\n== overload control (%s) ==\n"
         (Overload.describe ol.Engine.ol_params));
    Buffer.add_string b
      (Report.table
         ~header:
           [ "shard"; "offered"; "admitted"; "browned"; "shed"; "in"; "out";
             "retry-supp"; "open w"; "breaker" ]
         (overload_rows ol)));
  Buffer.add_string b "\n\n";
  Buffer.add_string b
    (Printf.sprintf
       "aggregate: %d jobs, %d modeled requests over %.3g modeled s (offered %.0f rps)\n"
       r.Engine.total_jobs r.Engine.total_requests r.Engine.params.Engine.duration_s
       r.Engine.offered_rps);
  Buffer.add_string b
    (Printf.sprintf "fairness (Jain, per-tenant mean latency): %.3f\n" r.Engine.fairness);
  Buffer.add_string b
    (Printf.sprintf "noisy-neighbor p99 delta (co-located vs others): %s\n"
       (opt_pct r.Engine.noisy_p99_delta_pct));
  Buffer.add_string b
    (Printf.sprintf "optimized-vs-default p50 advantage: %s\n"
       (opt_pct r.Engine.opt_p50_advantage_pct));
  (* only traced runs carry exemplars, so untraced reports are unchanged *)
  if Flo_obs.Histogram.has_exemplars r.Engine.agg_hist then
    Buffer.add_string b
      (Printf.sprintf "p99 exemplar traces: %s (resolve with `flopt trace`)\n"
         (String.concat ","
            (List.map
               (fun (e : Flo_obs.Histogram.exemplar) ->
                 Flo_obs.Trace.id_to_string e.Flo_obs.Histogram.trace_id)
               (Flo_obs.Histogram.exemplars_at r.Engine.agg_hist ~p:0.99))));
  Buffer.contents b

let print ?max_rows (r : Engine.result) =
  print_string (summary ?max_rows r);
  (match r.Engine.overload with
  | None -> ()
  | Some ol -> print_endline (overload_line r ol));
  print_endline (verdict_line r)
