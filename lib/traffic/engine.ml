open Flo_engine
open Flo_workloads

(* Open-loop multi-tenant traffic over the 16-app catalog.

   Tenants draw apps Zipfian-by-rank, jobs arrive per tenant as a seeded
   Poisson (or on/off bursty) process, and each tenant runs either the
   default or the compiler-optimized layouts.  The hierarchy is sharded by
   storage node: tenant i lives on shard (i mod storage_nodes).  [simulate]
   plans each shard's tenants as one task on the Parallel domain pool,
   lets a controller decide what each (shard, window) serves, replays the
   served cells through the batched kernels (again one task per shard),
   and merges per-shard stats in shard order — so results are identical at
   every jobs setting.

   Determinism: every stochastic draw comes from a splitmix64 substream
   keyed by (seed, tenant, purpose) — never Random, never the wall clock —
   so a (params, config) pair replays byte-identically, and a tenant's
   stream does not depend on how other tenants are enumerated or scheduled. *)

type params = {
  mix : App.t list;  (** popularity order: head = rank 1 *)
  tenants : int;
  seed : int;
  duration_s : float;  (** modeled window, seconds *)
  rate : float;  (** mean job arrivals per tenant per modeled second *)
  zipf_s : float;
  opt_share : float;  (** fraction of tenants given optimized layouts *)
  noisy_boost : float;  (** arrival-rate multiplier for tenant 0; 1 = off *)
  process : Arrivals.process;
  sample : int;  (** profile-mode sampling for kernel compilation *)
  windows : int;  (** SLO evaluation windows the modeled period splits into *)
  faults : Flo_faults.Fault_plan.t;
      (** fault plan baked into kernel compilation; empty = fault-free *)
  trace : Tracer.params option;
      (** request sampling; [None] (the default) compiles kernels without
          profile collection and skips the tracing sweep entirely *)
  overload : Overload.params option;
      (** admission control / load shedding / circuit breaking; [None]
          (the default) selects the identity controller, which serves every
          job at home — the open-loop engine *)
}

let default_params ~mix =
  {
    mix;
    tenants = 64;
    seed = 42;
    duration_s = 10.;
    rate = 2.;
    zipf_s = 1.1;
    opt_share = 0.5;
    noisy_boost = 1.;
    process = Arrivals.Poisson;
    sample = 8;
    windows = 1;
    faults = Flo_faults.Fault_plan.empty;
    trace = None;
    overload = None;
  }

let validate p =
  let ( let* ) = Result.bind in
  let* () = if p.mix <> [] then Ok () else Error "mix must name at least one application" in
  let* () = if p.tenants >= 0 then Ok () else Error "tenants must be non-negative" in
  let* () = if p.duration_s > 0. then Ok () else Error "duration must be positive" in
  let* () = if p.rate > 0. then Ok () else Error "rate must be positive" in
  let* () = if p.zipf_s > 0. then Ok () else Error "zipf-s must be positive" in
  let* () =
    if p.opt_share >= 0. && p.opt_share <= 1. then Ok ()
    else Error "opt-share must be in [0, 1]"
  in
  let* () = if p.noisy_boost >= 1. then Ok () else Error "noisy boost must be >= 1" in
  let* () = if p.sample >= 1 then Ok () else Error "sample must be positive" in
  let* () = if p.windows >= 1 then Ok () else Error "windows must be positive" in
  let* () = match p.trace with None -> Ok () | Some tp -> Tracer.validate tp in
  let* () = match p.overload with None -> Ok () | Some o -> Overload.validate o in
  Arrivals.validate p.process

(* per-tenant substream purposes; the stride is full — widen it if adding
   another purpose *)
let streams_per_tenant = 4
let stream_layout t = (t * streams_per_tenant) + 0
let stream_arrivals t = (t * streams_per_tenant) + 1
let stream_apps t = (t * streams_per_tenant) + 2
let stream_trace t = (t * streams_per_tenant) + 3

type tenant_stats = {
  tenant : int;
  shard : int;
  optimized : bool;
  jobs : int;
  requests : int;
  rank_jobs : int array;  (** jobs per mix rank *)
  window_rank_jobs : int array array;  (** jobs per (window, mix rank) *)
  mean_us : float;
  p50_us : float;
  p99_us : float;
}

type shard_stats = {
  shard : int;
  shard_tenants : int;
  shard_jobs : int;
  shard_requests : int;
  utilization : float;  (** summed service demand / modeled window *)
  multiplier : float;  (** congestion latency factor, [1 + utilization] *)
  window_multipliers : float array;
      (** per-window congestion factor, [1 + window utilization]; equals
          [[| multiplier |]] when the period is a single window *)
}

(* one (shard, window) cell of the overload-control ledger; all serving
   counts are attributed to the shard that actually served the jobs *)
type shard_window_admission = {
  aw_offered_jobs : int;  (** jobs of tenants homed on this shard *)
  aw_routed_out_jobs : int;  (** homed here, served elsewhere (open breaker) *)
  aw_routed_in_jobs : int;  (** homed elsewhere, failed over to here *)
  aw_offered_us : float;
      (** service demand presented for admission on this shard after
          routing, in normal-kernel units *)
  aw_admitted_jobs : int;  (** served here at full fidelity *)
  aw_browned_jobs : int;  (** served here by the degraded brownout kernels *)
  aw_shed_jobs : int;  (** rejected here, never served *)
  aw_served_requests : int;
  aw_admitted_us : float;  (** demand actually absorbed after control *)
  aw_multiplier : float;  (** [1 + admitted demand / window length] *)
  aw_retry_suppressed : bool;
      (** the admission controller switched this cell to the fail-fast
          (retry-suppressed) kernels before shedding any job *)
  aw_breaker : Flo_faults.Breaker.state option;
      (** this shard's breaker state {e during} the window; [None] when no
          breaker is armed on the shard *)
}

type overload_stats = {
  ol_params : Overload.params;
  ol_ff_kernels : (Kernel.t * Kernel.t) array option;
      (** retry-suppressed variants, compiled only under a non-empty fault
          plan with retries enabled *)
  ol_bw_kernels : (Kernel.t * Kernel.t) array option;
      (** reduced-fidelity brownout variants, compiled only under the
          [Brownout] policy *)
  ol_tenant_segs : Overload.seg list array array array;
      (** tenant -> window -> rank -> admitted segments, in serving order *)
  ol_tenant_shed : int array array array;
      (** tenant -> window -> rank -> shed jobs *)
  ol_admissions : shard_window_admission array array;  (** shard -> window *)
  ol_offered_requests : int;  (** arrivals, in normal-kernel request units *)
  ol_admitted_requests : int;  (** requests actually served *)
  ol_shed_requests : int;  (** shed jobs, in normal-kernel request units *)
  ol_browned_jobs : int;
  ol_failover_jobs : int;  (** jobs served off their home shard *)
  ol_retry_suppressed_windows : int;  (** (shard, window) cells switched *)
  ol_goodput_rps : float;  (** admitted requests per modeled second *)
  ol_shed_fraction : float;  (** shed / offered requests *)
}

type result = {
  params : params;
  shards : shard_stats array;
  tenants_stats : tenant_stats array;  (** indexed by tenant id *)
  kernels : (Kernel.t * Kernel.t) array;  (** per rank: (default, inter) *)
  agg_hist : Flo_obs.Histogram.t;
  traces : Flo_obs.Trace.t list;
  total_jobs : int;
  total_requests : int;
  offered_rps : float;  (** modeled requests per modeled second *)
  agg_p50_us : float;
  agg_p99_us : float;
  fairness : float;  (** Jain's index over per-tenant mean latency *)
  noisy_p99_delta_pct : float option;
  opt_p50_advantage_pct : float option;
  overload : overload_stats option;  (** [Some] iff [params.overload] is *)
}

let compile_kernels ?jobs ?sample ?faults ~config p =
  let sample = Option.value sample ~default:p.sample in
  let faults = Option.value faults ~default:p.faults in
  let ranked = Array.of_list p.mix in
  (* both modes for every rank, fanned over the pool; order by (rank, mode)
     so the array layout is independent of scheduling *)
  let tasks =
    Array.concat
      (List.map
         (fun mode -> Array.map (fun app -> (app, mode)) ranked)
         [ Kernel.Default; Kernel.Inter ])
  in
  let compiled =
    Parallel.map ?jobs
      (fun (app, mode) ->
        Kernel.compile ~sample ~faults ~profile:(p.trace <> None)
          ~config ~mode app)
      tasks
  in
  let n = Array.length ranked in
  Array.init n (fun r -> (compiled.(r), compiled.(n + r)))

(* one tenant's plan: layout decision, per-(window, rank) job counts, the
   requests they offer and the service demand they put on the tenant's home
   shard in each window, all in normal-kernel units *)
type tenant_plan = {
  pl_tenant : int;
  pl_optimized : bool;
  pl_window_jobs : int array array;  (** windows x ranks *)
  pl_window_demand_us : float array;  (** per window *)
  pl_jobs : int;
  pl_requests : int;
}

let plan_rank_jobs pl =
  let ranks = if Array.length pl.pl_window_jobs = 0 then 0
              else Array.length pl.pl_window_jobs.(0) in
  let sums = Array.make ranks 0 in
  Array.iter (Array.iteri (fun r j -> sums.(r) <- sums.(r) + j)) pl.pl_window_jobs;
  sums

(* the kernel of rank [r] for a tenant with this layout *)
let layout_kernel arr r optimized =
  let kd, ki = arr.(r) in
  if optimized then ki else kd

(* ... and under an admission variant; variants whose kernels were never
   compiled fall back to the normal ones *)
let variant_kernel ~kernels ~ff_kernels ~bw_kernels variant =
  layout_kernel
    (match ((variant : Overload.variant), ff_kernels, bw_kernels) with
    | Overload.Fail_fast_serve, Some a, _ | Overload.Browned, _, Some a -> a
    | _ -> kernels)

let plan_tenant ~p ~zipf ~kernels tenant =
  let prng_layout = Flo_faults.Prng.for_stream ~seed:p.seed ~stream:(stream_layout tenant) in
  let optimized = Flo_faults.Prng.float prng_layout < p.opt_share in
  let rate = if tenant = 0 then p.rate *. p.noisy_boost else p.rate in
  let prng_arr = Flo_faults.Prng.for_stream ~seed:p.seed ~stream:(stream_arrivals tenant) in
  let prng_apps = Flo_faults.Prng.for_stream ~seed:p.seed ~stream:(stream_apps tenant) in
  let win_len = p.duration_s /. float_of_int p.windows in
  let window_jobs = Array.make_matrix p.windows (Array.length kernels) 0 in
  (* each arrival is bucketed into its window and draws its app rank on the
     spot.  The arrivals and apps substreams are independent, so each
     stream's draw sequence — and hence every count — is exactly what the
     unwindowed two-pass (count, then sample per job) produced: windows = 1
     replays byte-identically. *)
  Arrivals.iter prng_arr ~process:p.process ~rate ~duration_s:p.duration_s (fun t ->
      let w = min (p.windows - 1) (int_of_float (t /. win_len)) in
      let r = Zipf.sample zipf prng_apps in
      window_jobs.(w).(r) <- window_jobs.(w).(r) + 1);
  let jobs = ref 0 and requests = ref 0 in
  let window_demand =
    Array.map
      (fun rank_jobs ->
        let demand = ref 0. in
        Array.iteri
          (fun r j ->
            if j > 0 then begin
              let k = layout_kernel kernels r optimized in
              jobs := !jobs + j;
              requests := !requests + (j * k.Kernel.requests_per_job);
              demand := !demand +. (float_of_int j *. k.Kernel.demand_us_per_job)
            end)
          rank_jobs;
        !demand)
      window_jobs
  in
  { pl_tenant = tenant; pl_optimized = optimized; pl_window_jobs = window_jobs;
    pl_window_demand_us = window_demand; pl_jobs = !jobs; pl_requests = !requests }

(* Traffic histograms use a much finer bucket resolution than the default
   run-level shape (gamma 1.05 ≈ 5% relative error instead of 60%): tenant
   percentiles are compared against each other (optimized vs default,
   co-located vs remote), and at gamma 1.6 those comparisons would collapse
   onto shared bucket edges. *)
let hist_create () = Flo_obs.Histogram.create ~gamma:1.05 ~buckets:640 ()

let hist_merge_list hists = List.fold_left Flo_obs.Histogram.merge (hist_create ()) hists

(* The one walk over a tenant's served cells, in replay order: (window,
   rank) ascending; within a cell every admitted slice in serving order,
   then the jobs the controller shed there.  The identity controller
   serves every planned job at home under its home shard's window
   multipliers, so its walk reads the plan directly and nothing is
   materialised per cell.  The replay, the tracer and Slo_eval all consume
   this walk, so they see the same cells. *)
let walk_cells ~kernels ~overload ~multipliers ~tenant ~optimized ~window_jobs ~served
    ~shed =
  match overload with
  | None ->
    Array.iteri
      (fun w rank_jobs ->
        Array.iteri
          (fun r j ->
            if j > 0 then served w r (layout_kernel kernels r optimized) j multipliers.(w))
          rank_jobs)
      window_jobs
  | Some ol ->
    let kernel_of v r =
      variant_kernel ~kernels ~ff_kernels:ol.ol_ff_kernels ~bw_kernels:ol.ol_bw_kernels v
        r optimized
    in
    Array.iteri
      (fun w segs_row ->
        Array.iteri
          (fun r segs ->
            List.iter
              (fun (sg : Overload.seg) ->
                served w r (kernel_of sg.Overload.sg_variant r) sg.Overload.sg_jobs
                  sg.Overload.sg_mult)
              segs;
            let sj = ol.ol_tenant_shed.(tenant).(w).(r) in
            if sj > 0 then shed w r (kernel_of Overload.Normal r) sj)
          segs_row)
      ol.ol_tenant_segs.(tenant)

let cells r tenant =
  let s = r.tenants_stats.(tenant) in
  walk_cells ~kernels:r.kernels ~overload:r.overload
    ~multipliers:r.shards.(s.shard).window_multipliers ~tenant ~optimized:s.optimized
    ~window_jobs:s.window_rank_jobs

(* replay one tenant's served cells into its latency histogram: each
   cell's requests are apportioned across the kernel's latency classes in
   one O(classes) sweep, under the cell's congestion multiplier *)
let replay (walk : Tracer.cells) =
  let hist = hist_create () in
  let requests = ref 0 in
  walk
    ~served:(fun _ _ k jobs multiplier ->
      let n = jobs * k.Kernel.requests_per_job in
      requests := !requests + n;
      Array.iteri
        (fun i cnt ->
          if cnt > 0 then
            Flo_obs.Histogram.add_many hist
              (k.Kernel.classes.(i).Kernel.latency_us *. multiplier)
              cnt)
        (Kernel.apportion k ~requests:n))
    ~shed:(fun _ _ _ _ -> ());
  (hist, !requests)

let jain xs =
  match Array.length xs with
  | 0 -> 1.
  | n ->
    let s = Array.fold_left ( +. ) 0. xs in
    let s2 = Array.fold_left (fun acc x -> acc +. (x *. x)) 0. xs in
    if s2 = 0. then 1. else s *. s /. (float_of_int n *. s2)

let mean_of = function
  | [] -> 0.
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

(* cross-tenant aggregates *)
let noisy_delta ~p ~shards_n active =
  if p.noisy_boost <= 1. || shards_n < 2 || p.tenants < 2 then None
  else begin
    (* tenants co-located with the noisy tenant (its shard, itself
       excluded) against tenants on the other shards *)
    let noisy_shard = 0 in
    let co, others =
      List.partition
        (fun (s : tenant_stats) -> s.shard = noisy_shard)
        (List.filter (fun (s : tenant_stats) -> s.tenant <> 0) active)
    in
    match (co, others) with
    | [], _ | _, [] -> None
    | _ ->
      let a = mean_of (List.map (fun s -> s.p99_us) co) in
      let b = mean_of (List.map (fun s -> s.p99_us) others) in
      if b = 0. then None else Some (100. *. ((a /. b) -. 1.))
  end

let opt_advantage active =
  let opt, dfl = List.partition (fun (s : tenant_stats) -> s.optimized) active in
  match (opt, dfl) with
  | [], _ | _, [] -> None
  | _ ->
    let o = mean_of (List.map (fun (s : tenant_stats) -> s.p50_us) opt) in
    let d = mean_of (List.map (fun (s : tenant_stats) -> s.p50_us) dfl) in
    if d = 0. then None else Some (100. *. ((d -. o) /. d))

(* per-tenant, per-shard and overload counters for the observability
   layer; filled after the parallel phases so the registry is only touched
   by one domain *)
let publish_metrics registry tenants_stats shards overload =
  Array.iter
    (fun s ->
      let labels = [ ("tenant", string_of_int s.tenant) ] in
      Flo_obs.Metrics.incr ~by:s.jobs (Flo_obs.Metrics.counter registry ~labels "traffic.jobs");
      Flo_obs.Metrics.incr ~by:s.requests
        (Flo_obs.Metrics.counter registry ~labels "traffic.requests"))
    tenants_stats;
  Array.iter
    (fun s ->
      let labels = [ ("shard", string_of_int s.shard) ] in
      Flo_obs.Metrics.incr ~by:s.shard_requests
        (Flo_obs.Metrics.counter registry ~labels "traffic.shard_requests"))
    shards;
  Option.iter
    (fun ol ->
      let counter name by =
        Flo_obs.Metrics.incr ~by (Flo_obs.Metrics.counter registry name)
      in
      counter "overload.shed_requests" ol.ol_shed_requests;
      counter "overload.admitted_requests" ol.ol_admitted_requests;
      counter "overload.browned_jobs" ol.ol_browned_jobs;
      counter "overload.failover_jobs" ol.ol_failover_jobs;
      Flo_obs.Metrics.set_gauge
        (Flo_obs.Metrics.gauge registry "overload.goodput_rps")
        ol.ol_goodput_rps;
      Flo_obs.Metrics.set_gauge
        (Flo_obs.Metrics.gauge registry "overload.shed_fraction")
        ol.ol_shed_fraction;
      Array.iteri
        (fun s cells ->
          let opened =
            Array.fold_left
              (fun a c ->
                match c.aw_breaker with Some (Flo_faults.Breaker.Open _) -> a + 1 | _ -> a)
              0 cells
          in
          if opened > 0 then
            Flo_obs.Metrics.incr ~by:opened
              (Flo_obs.Metrics.counter registry
                 ~labels:[ ("shard", string_of_int s) ]
                 "overload.breaker_open_windows"))
        ol.ol_admissions)
    overload

(* ---------------------------------------------------------------------- *)
(* Control: between planning and replay, a controller decides which jobs
   each (shard, window) serves, with which kernels and under which
   congestion multiplier.  It answers with the shard rows of the result and
   the overload ledger the cell walk reads ([None] for the identity
   controller).  Both controllers are pure functions of the plans: no
   draws, no wall clock, so they are byte-identical at every jobs value. *)

(* Controls off: admit every job at home.  Congestion is per (shard,
   window): each window's multiplier is 1 + that window's summed demand over
   its length, so a burst inflates only its own window's latencies.  The
   demand is summed per tenant over ranks (in the plan), then over the
   shard's tenants in plan order. *)
let identity_control ~p shard_plans =
  let win_len_us = p.duration_s /. float_of_int p.windows *. 1e6 in
  Array.mapi
    (fun shard plans ->
      let window_demand = Array.make p.windows 0. in
      List.iter
        (fun pl ->
          Array.iteri
            (fun w d -> window_demand.(w) <- window_demand.(w) +. d)
            pl.pl_window_demand_us)
        plans;
      let demand_us = Array.fold_left ( +. ) 0. window_demand in
      let utilization = demand_us /. (p.duration_s *. 1e6) in
      {
        shard;
        shard_tenants = List.length plans;
        shard_jobs = List.fold_left (fun a pl -> a + pl.pl_jobs) 0 plans;
        shard_requests = List.fold_left (fun a pl -> a + pl.pl_requests) 0 plans;
        utilization;
        multiplier = 1. +. utilization;
        window_multipliers = Array.map (fun d -> 1. +. (d /. win_len_us)) window_demand;
      })
    shard_plans

(* Controls on: a sequential loop over (window, shard).  Breakers decide
   what each shard admits, open shards route their traffic along the
   failover path, and the admission controller keeps each serving shard's
   demand at or under [capacity * window length] by shedding, degrading,
   or retry-suppressing whole jobs — all exact-integer largest-remainder
   decisions. *)
let admission_control ?jobs ~config ~p ~kernels ~(o : Overload.params) shard_plans =
  (* kernel variants: fail-fast recompiles under the same plan with the
     retry budget zeroed (retries shed before any fresh job); brownout
     recompiles at a coarser sampling factor (degraded service, reusing the
     simulator's profile-mode knob).  Both are skipped when no policy can
     reach them, so breaker-only runs pay for no extra compilations. *)
  let ff_kernels =
    let retry = p.faults.Flo_faults.Fault_plan.retry in
    if
      o.Overload.shed = None
      || Flo_faults.Fault_plan.is_empty p.faults
      || retry.Flo_faults.Retry.max_retries = 0
    then None
    else
      let ff_plan =
        { p.faults with
          Flo_faults.Fault_plan.retry = { retry with Flo_faults.Retry.max_retries = 0 } }
      in
      Some (compile_kernels ?jobs ~faults:ff_plan ~config p)
  in
  let bw_kernels =
    if o.Overload.shed = Some Overload.Brownout then
      Some (compile_kernels ?jobs ~sample:(p.sample * o.Overload.brownout_factor) ~config p)
    else None
  in
  let kernel_of = variant_kernel ~kernels ~ff_kernels ~bw_kernels in
  let shards_n = Array.length shard_plans in
  let ranks = Array.length kernels in
  let win_len_us = p.duration_s /. float_of_int p.windows *. 1e6 in
  let target_us =
    match o.Overload.shed with
    | None -> infinity  (* breaker-only mode: route, never shed *)
    | Some _ -> o.Overload.capacity *. win_len_us
  in
  (* a shard's admission classes: every (tenant, rank) pair homed on it, in
     home order — the order every split decision is made in *)
  let shard_classes =
    Array.map
      (fun plans ->
        Array.of_list
          (List.concat_map (fun pl -> List.init ranks (fun r -> (pl, r))) plans))
      shard_plans
  in
  let breakers =
    Array.init shards_n (fun s ->
        match o.Overload.breaker with
        | Some spec when Flo_faults.Breaker.armed spec ~node:s ->
          Some (Flo_faults.Breaker.create spec)
        | _ -> None)
  in
  let tenant_segs =
    Array.init p.tenants (fun _ ->
        Array.init p.windows (fun _ -> Array.make ranks ([] : Overload.seg list)))
  in
  let tenant_shed = Array.init p.tenants (fun _ -> Array.make_matrix p.windows ranks 0) in
  let shed_requests = ref 0 in
  let dummy_cell =
    {
      aw_offered_jobs = 0;
      aw_routed_out_jobs = 0;
      aw_routed_in_jobs = 0;
      aw_offered_us = 0.;
      aw_admitted_jobs = 0;
      aw_browned_jobs = 0;
      aw_shed_jobs = 0;
      aw_served_requests = 0;
      aw_admitted_us = 0.;
      aw_multiplier = 1.;
      aw_retry_suppressed = false;
      aw_breaker = None;
    }
  in
  let admissions = Array.init shards_n (fun _ -> Array.make p.windows dummy_cell) in
  for w = 0 to p.windows - 1 do
    let admit_mode =
      Array.map
        (function None -> `All | Some b -> Flo_faults.Breaker.admits b ~window:w)
        breakers
    in
    (* an open shard's traffic goes to the next shard that admits anything —
       the same ring walk as Injector.failover_node.  If every other shard
       is also open, the traffic is served locally: the breaker cannot
       black-hole the fleet. *)
    let fail_target s =
      let rec go k =
        if k >= shards_n then s
        else
          let t = (s + k) mod shards_n in
          if admit_mode.(t) <> `None then t else go (k + 1)
      in
      go 1
    in
    (* routing: build each serving shard's admission ledger (reversed;
       deterministic home-shard-then-class order) *)
    let served = Array.make shards_n ([] : (tenant_plan * int * int) list) in
    let offered_jobs = Array.make shards_n 0 in
    let routed_in = Array.make shards_n 0 in
    let routed_out = Array.make shards_n 0 in
    Array.iteri
      (fun s classes ->
        let counts = Array.map (fun (pl, r) -> pl.pl_window_jobs.(w).(r)) classes in
        let total = Array.fold_left ( + ) 0 counts in
        offered_jobs.(s) <- total;
        if total > 0 then begin
          let add t i n =
            if n > 0 then begin
              let pl, r = classes.(i) in
              served.(t) <- (pl, r, n) :: served.(t);
              if t <> s then begin
                routed_in.(t) <- routed_in.(t) + n;
                routed_out.(s) <- routed_out.(s) + n
              end
            end
          in
          match admit_mode.(s) with
          | `All -> Array.iteri (fun i n -> add s i n) counts
          | `None ->
            let t = fail_target s in
            Array.iteri (fun i n -> add t i n) counts
          | `Probe f ->
            (* half-open: a probe fraction stays local (at least one job,
               or the breaker could never observe a recovery), the rest
               takes the failover path *)
            let keep = max 1 (int_of_float (f *. float_of_int total)) in
            let local = Overload.split ~counts ~keep in
            let t = fail_target s in
            Array.iteri
              (fun i n ->
                add s i local.(i);
                add t i (n - local.(i)))
              counts
        end)
      shard_classes;
    (* admission per serving shard *)
    let req_obs = Array.make shards_n 0 in
    let err_obs = Array.make shards_n 0 in
    Array.iteri
      (fun t entries_rev ->
        let entries = Array.of_list (List.rev entries_rev) in
        let n_entries = Array.length entries in
        let counts = Array.map (fun (_, _, n) -> n) entries in
        let total = Array.fold_left ( + ) 0 counts in
        let demand_of variant counts =
          let d = ref 0. in
          Array.iteri
            (fun i n ->
              if n > 0 then begin
                let pl, r, _ = entries.(i) in
                let k = kernel_of variant r pl.pl_optimized in
                d := !d +. (float_of_int n *. k.Kernel.demand_us_per_job)
              end)
            counts;
          !d
        in
        let offered_us = demand_of Overload.Normal counts in
        (* retry-aware admission: when the window is over target and the
           fault plan is burning service time in retries, suppress the
           retry storm (serve everything fail-fast) before shedding any
           fresh job — the defence against metastable congestion collapse *)
        let variant, base_us =
          if offered_us > target_us && ff_kernels <> None then begin
            let ff_us = demand_of Overload.Fail_fast_serve counts in
            if ff_us < offered_us then (Overload.Fail_fast_serve, ff_us)
            else (Overload.Normal, offered_us)
          end
          else (Overload.Normal, offered_us)
        in
        let zeros () = Array.make n_entries 0 in
        (* deterministic top-up: the proportional split computes [keep]
           from the aggregate demand ratio, so with heterogeneous class
           demands (one bt job is worth hundreds of small-app jobs) the
           integer floor can strand most of the window's capacity.  After
           apportioning, greedily admit whole jobs that still fit under
           target, walking classes in [order] until a full pass admits
           nothing. *)
        let top_up ?order ~variant admitted =
          let order =
            match order with Some o -> o | None -> Array.init n_entries Fun.id
          in
          let admitted = Array.copy admitted in
          let per_job =
            Array.map
              (fun (pl, r, _) ->
                (kernel_of variant r pl.pl_optimized).Kernel.demand_us_per_job)
              entries
          in
          let used = ref 0. in
          Array.iteri
            (fun i n -> used := !used +. (float_of_int n *. per_job.(i)))
            admitted;
          let progress = ref true in
          while !progress do
            progress := false;
            Array.iter
              (fun i ->
                if admitted.(i) < counts.(i) && !used +. per_job.(i) <= target_us
                then begin
                  admitted.(i) <- admitted.(i) + 1;
                  used := !used +. per_job.(i);
                  progress := true
                end)
              order
          done;
          admitted
        in
        (* kept (served with [variant]) and browned job counts per class;
           anything left over is shed.  Each policy keeps admitted demand
           at or under target to within per-class rounding. *)
        let kept, browned =
          if base_us <= target_us || total = 0 then (Array.copy counts, zeros ())
          else
            match o.Overload.shed with
            | None -> (Array.copy counts, zeros ())  (* target is infinite *)
            | Some Overload.Fail_fast ->
              let keep = int_of_float (target_us /. base_us *. float_of_int total) in
              (top_up ~variant (Overload.split ~counts ~keep), zeros ())
            | Some Overload.Priority ->
              (* the optimized (paying) cohort is admitted first; default
                 jobs absorb the shedding until that cohort alone exceeds
                 the target *)
              let opt_counts =
                Array.map (fun (pl, _, n) -> if pl.pl_optimized then n else 0) entries
              in
              let dfl_counts =
                Array.map (fun (pl, _, n) -> if pl.pl_optimized then 0 else n) entries
              in
              let opt_total = Array.fold_left ( + ) 0 opt_counts in
              let dfl_total = Array.fold_left ( + ) 0 dfl_counts in
              (* optimized classes first, so any capacity the rounding
                 leaves behind goes to the protected cohort before the
                 default one *)
              let opt_first =
                let opt = ref [] and dfl = ref [] in
                Array.iteri
                  (fun i (pl, _, _) ->
                    if pl.pl_optimized then opt := i :: !opt else dfl := i :: !dfl)
                  entries;
                Array.of_list (List.rev !opt @ List.rev !dfl)
              in
              let opt_us = demand_of variant opt_counts in
              if opt_us >= target_us then begin
                let keep =
                  if opt_us <= 0. then 0
                  else int_of_float (target_us /. opt_us *. float_of_int opt_total)
                in
                ( top_up ~order:opt_first ~variant
                    (Overload.split ~counts:opt_counts ~keep),
                  zeros () )
              end
              else begin
                let dfl_us = base_us -. opt_us in
                let keep_dfl =
                  if dfl_us <= 0. then dfl_total
                  else
                    int_of_float
                      ((target_us -. opt_us) /. dfl_us *. float_of_int dfl_total)
                in
                let kept_dfl = Overload.split ~counts:dfl_counts ~keep:keep_dfl in
                ( top_up ~order:opt_first ~variant
                    (Array.init n_entries (fun i -> opt_counts.(i) + kept_dfl.(i))),
                  zeros () )
              end
            | Some Overload.Brownout ->
              let bw_us = demand_of Overload.Browned counts in
              if bw_us >= target_us then begin
                (* even fully degraded the window exceeds target: brown
                   what fits, shed the rest *)
                let keep =
                  if bw_us <= 0. then 0
                  else int_of_float (target_us /. bw_us *. float_of_int total)
                in
                ( zeros (),
                  top_up ~variant:Overload.Browned (Overload.split ~counts ~keep) )
              end
              else begin
                (* degrade the g fraction that brings admitted demand back
                   to target: (1-g) * base + g * browned = target *)
                let g = (base_us -. target_us) /. (base_us -. bw_us) in
                let browned =
                  Overload.split ~counts
                    ~keep:(min total (int_of_float (ceil (g *. float_of_int total))))
                in
                (Array.init n_entries (fun i -> counts.(i) - browned.(i)), browned)
              end
        in
        (* the service quantum is a whole job: when even one job exceeds
           the window target the keep counts all floor to zero, which would
           stall the shard forever.  A real admission controller still
           drains one quantum per cycle, so admit exactly one job (browned
           under Brownout) and accept the bounded overshoot. *)
        let kept, browned =
          let admitted =
            Array.fold_left ( + ) 0 kept + Array.fold_left ( + ) 0 browned
          in
          if total = 0 || admitted > 0 then (kept, browned)
          else begin
            let one = zeros () in
            (try
               Array.iteri
                 (fun i c -> if c > 0 then (one.(i) <- 1; raise Exit))
                 counts
             with Exit -> ());
            match o.Overload.shed with
            | Some Overload.Brownout -> (kept, one)
            | _ -> (one, browned)
          end
        in
        (* the multiplier every admitted request sees is set by what was
           admitted, not what was offered — this is the whole point *)
        let admitted_us = ref 0. in
        Array.iteri
          (fun i (pl, r, _) ->
            if kept.(i) > 0 then begin
              let k = kernel_of variant r pl.pl_optimized in
              admitted_us :=
                !admitted_us +. (float_of_int kept.(i) *. k.Kernel.demand_us_per_job)
            end;
            if browned.(i) > 0 then begin
              let k = kernel_of Overload.Browned r pl.pl_optimized in
              admitted_us :=
                !admitted_us +. (float_of_int browned.(i) *. k.Kernel.demand_us_per_job)
            end)
          entries;
        let multiplier = 1. +. (!admitted_us /. win_len_us) in
        let served_requests = ref 0 in
        let errors = ref 0 in
        let admitted_jobs = ref 0 in
        let browned_jobs = ref 0 in
        let shed_jobs = ref 0 in
        Array.iteri
          (fun i (pl, r, n) ->
            let record v cnt =
              if cnt > 0 then begin
                let k = kernel_of v r pl.pl_optimized in
                served_requests := !served_requests + (cnt * k.Kernel.requests_per_job);
                errors :=
                  !errors + (cnt * (k.Kernel.errors_per_job + k.Kernel.timeouts_per_job));
                tenant_segs.(pl.pl_tenant).(w).(r) <-
                  { Overload.sg_variant = v; sg_jobs = cnt; sg_mult = multiplier }
                  :: tenant_segs.(pl.pl_tenant).(w).(r)
              end
            in
            record variant kept.(i);
            record Overload.Browned browned.(i);
            admitted_jobs := !admitted_jobs + kept.(i);
            browned_jobs := !browned_jobs + browned.(i);
            let sh = n - kept.(i) - browned.(i) in
            if sh > 0 then begin
              shed_jobs := !shed_jobs + sh;
              shed_requests :=
                !shed_requests
                + (sh * (kernel_of Overload.Normal r pl.pl_optimized).Kernel.requests_per_job);
              tenant_shed.(pl.pl_tenant).(w).(r) <- tenant_shed.(pl.pl_tenant).(w).(r) + sh
            end)
          entries;
        req_obs.(t) <- !served_requests;
        err_obs.(t) <- !errors;
        admissions.(t).(w) <-
          {
            aw_offered_jobs = offered_jobs.(t);
            aw_routed_out_jobs = routed_out.(t);
            aw_routed_in_jobs = routed_in.(t);
            aw_offered_us = offered_us;
            aw_admitted_jobs = !admitted_jobs;
            aw_browned_jobs = !browned_jobs;
            aw_shed_jobs = !shed_jobs;
            aw_served_requests = !served_requests;
            aw_admitted_us = !admitted_us;
            aw_multiplier = multiplier;
            aw_retry_suppressed = (variant = Overload.Fail_fast_serve);
            aw_breaker = Option.map Flo_faults.Breaker.state breakers.(t);
          })
      served;
    (* end-of-window observations advance the breakers' state machines *)
    Array.iteri
      (fun s b ->
        match b with
        | None -> ()
        | Some b ->
          breakers.(s) <-
            Some
              (Flo_faults.Breaker.observe b ~window:w ~requests:req_obs.(s)
                 ~errors:err_obs.(s)))
      breakers
  done;
  (* segment lists were built head-first; serve order is the reverse *)
  Array.iter
    (fun wmat ->
      Array.iter
        (fun rrow -> Array.iteri (fun r segs -> rrow.(r) <- List.rev segs) rrow)
        wmat)
    tenant_segs;

  (* shard stats under overload use serving-shard attribution, straight
     from the admission ledger *)
  let shards =
    Array.init shards_n (fun s ->
        let cells = admissions.(s) in
        let admitted_us =
          Array.fold_left (fun a c -> a +. c.aw_admitted_us) 0. cells
        in
        let utilization = admitted_us /. (p.duration_s *. 1e6) in
        {
          shard = s;
          shard_tenants = List.length shard_plans.(s);
          shard_jobs =
            Array.fold_left (fun a c -> a + c.aw_admitted_jobs + c.aw_browned_jobs) 0 cells;
          shard_requests = Array.fold_left (fun a c -> a + c.aw_served_requests) 0 cells;
          utilization;
          multiplier = 1. +. utilization;
          window_multipliers = Array.map (fun c -> c.aw_multiplier) cells;
        })
  in
  let sum_cells f =
    Array.fold_left
      (fun a cells -> Array.fold_left (fun a c -> a + f c) a cells)
      0 admissions
  in
  (* offered and shed requests are in normal-kernel units *)
  let offered_requests =
    Array.fold_left (List.fold_left (fun a pl -> a + pl.pl_requests)) 0 shard_plans
  in
  let admitted_requests = sum_cells (fun c -> c.aw_served_requests) in
  ( shards,
    {
      ol_params = o;
      ol_ff_kernels = ff_kernels;
      ol_bw_kernels = bw_kernels;
      ol_tenant_segs = tenant_segs;
      ol_tenant_shed = tenant_shed;
      ol_admissions = admissions;
      ol_offered_requests = offered_requests;
      ol_admitted_requests = admitted_requests;
      ol_shed_requests = !shed_requests;
      ol_browned_jobs = sum_cells (fun c -> c.aw_browned_jobs);
      ol_failover_jobs = sum_cells (fun c -> c.aw_routed_in_jobs);
      ol_retry_suppressed_windows = sum_cells (fun c -> if c.aw_retry_suppressed then 1 else 0);
      ol_goodput_rps = float_of_int admitted_requests /. p.duration_s;
      ol_shed_fraction =
        (if offered_requests = 0 then 0.
         else float_of_int !shed_requests /. float_of_int offered_requests);
    } )

(* ---------------------------------------------------------------------- *)
(* The pipeline: plan (parallel per home shard) -> control -> replay and
   trace (parallel per home shard) -> observe (merge in shard order). *)

let simulate ?jobs ?metrics ~config p =
  (match validate p with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Traffic.Engine.simulate: " ^ msg));
  let kernels = compile_kernels ?jobs ~config p in
  let zipf = Zipf.make ~s:p.zipf_s ~n:(Array.length kernels) in
  let shards_n = config.Config.topology.Flo_storage.Topology.storage_nodes in
  (* plan: one task per storage shard; a shard owns tenants (i mod
     shards_n), so cross-shard scheduling cannot matter *)
  let shard_plans =
    Parallel.map ?jobs
      (fun shard ->
        List.map (plan_tenant ~p ~zipf ~kernels)
          (List.filter (fun t -> t mod shards_n = shard) (List.init p.tenants Fun.id)))
      (Array.init shards_n Fun.id)
  in
  let shards, overload =
    match p.overload with
    | None -> (identity_control ~p shard_plans, None)
    | Some o ->
      let shards, ol = admission_control ?jobs ~config ~p ~kernels ~o shard_plans in
      (shards, Some ol)
  in
  let win_len_us = p.duration_s /. float_of_int p.windows *. 1e6 in
  (* replay, then let the tracer observe the same cells: it adds exemplars
     to the tenant histograms — which then ride the shard-order merges
     below — but never a count, so every modeled number is byte-identical
     with tracing on or off *)
  let shard_results =
    Parallel.map ?jobs
      (fun shard ->
        (* each tenant's histogram folds into the shard's as soon as its
           stats and traces are taken — the same left fold as
           [hist_merge_list], with one tenant histogram alive at a time *)
        let stats_rev, traces_rev, shard_hist =
          List.fold_left
            (fun (stats_rev, traces_rev, shard_hist) pl ->
              let walk =
                walk_cells ~kernels ~overload
                  ~multipliers:shards.(shard).window_multipliers ~tenant:pl.pl_tenant
                  ~optimized:pl.pl_optimized ~window_jobs:pl.pl_window_jobs
              in
              let hist, requests = replay walk in
              let rank_jobs = plan_rank_jobs pl in
              let stats =
                {
                  tenant = pl.pl_tenant;
                  shard;
                  optimized = pl.pl_optimized;
                  (* jobs are what arrived; requests are what was served *)
                  jobs = pl.pl_jobs;
                  requests;
                  rank_jobs;
                  window_rank_jobs = pl.pl_window_jobs;
                  mean_us = Flo_obs.Histogram.mean hist;
                  p50_us = Flo_obs.Histogram.percentile hist 0.5;
                  p99_us = Flo_obs.Histogram.percentile hist 0.99;
                }
              in
              let traces =
                match p.trace with
                | None -> []
                | Some t ->
                  Tracer.trace_tenant ~t ~seed:p.seed ~stream:(stream_trace pl.pl_tenant)
                    ~tenant:pl.pl_tenant ~shard ~win_len_us ~windows:p.windows ~hist walk
              in
              ( stats :: stats_rev,
                List.rev_append traces traces_rev,
                Flo_obs.Histogram.merge shard_hist hist ))
            ([], [], hist_create ())
            shard_plans.(shard)
        in
        (List.rev stats_rev, shard_hist, List.rev traces_rev))
      (Array.init shards_n Fun.id)
  in
  (* observe: tenants by id; histograms and sampled traces merge in shard
     order, so both are identical at every jobs value *)
  let tenants_stats = Array.make p.tenants None in
  Array.iter
    (fun (stats, _, _) -> List.iter (fun s -> tenants_stats.(s.tenant) <- Some s) stats)
    shard_results;
  let tenants_stats =
    Array.map (function Some s -> s | None -> assert false) tenants_stats
  in
  let agg_hist =
    hist_merge_list (Array.to_list (Array.map (fun (_, h, _) -> h) shard_results))
  in
  let traces = List.concat_map (fun (_, _, ts) -> ts) (Array.to_list shard_results) in
  let total_jobs = Array.fold_left (fun a s -> a + s.shard_jobs) 0 shards in
  let total_requests = Array.fold_left (fun a s -> a + s.shard_requests) 0 shards in
  let active = List.filter (fun s -> s.requests > 0) (Array.to_list tenants_stats) in
  Option.iter (fun registry -> publish_metrics registry tenants_stats shards overload) metrics;
  {
    params = p;
    shards;
    tenants_stats;
    kernels;
    agg_hist;
    traces;
    total_jobs;
    total_requests;
    offered_rps = float_of_int total_requests /. p.duration_s;
    agg_p50_us = Flo_obs.Histogram.percentile agg_hist 0.5;
    agg_p99_us = Flo_obs.Histogram.percentile agg_hist 0.99;
    fairness = jain (Array.of_list (List.map (fun s -> s.mean_us) active));
    noisy_p99_delta_pct = noisy_delta ~p ~shards_n active;
    opt_p50_advantage_pct = opt_advantage active;
    overload;
  }
