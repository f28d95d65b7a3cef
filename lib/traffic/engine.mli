(** Open-loop multi-tenant traffic engine with sharded simulation.

    Tenants draw applications from a Zipfian popularity law over the mix,
    jobs arrive per tenant as a seeded Poisson (or on/off bursty) process,
    and each tenant runs either the default or the compiler-optimized
    layouts.  The hierarchy is sharded by storage node — tenant [i] lives
    on shard [i mod storage_nodes], each shard is one task on the
    {!Flo_engine.Parallel} domain pool, and per-shard stats merge in shard
    order — so every modeled quantity is identical at every [jobs] value.

    All randomness routes through {!Flo_faults.Prng} substreams keyed by
    (seed, tenant, purpose): runs are replay-exact and a tenant's stream
    never depends on enumeration or scheduling order. *)

open Flo_workloads

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
      (** fault plan baked into kernel compilation: retry/backoff latencies
          reach the latency classes and failed reads are counted per job
          ({!Kernel.t.errors_per_job}); the empty plan is byte-identical to
          a fault-free run *)
  trace : Tracer.params option;
      (** request-level sampled tracing ({!Tracer}); [None] (the default)
          skips profile collection and the tracing sweep entirely — every
          modeled number is byte-identical either way, tracing only {e adds}
          [result.traces] and histogram exemplars *)
  overload : Overload.params option;
      (** admission control, load shedding and circuit breaking
          ({!Overload}); [None] (the default) selects the identity
          controller, which admits every job at home under its shard's
          window congestion — the open-loop engine — and leaves
          [result.overload = None] *)
}

val default_params : mix:App.t list -> params
(** 64 tenants, seed 42, 10 modeled seconds at 2 jobs/s, zipf-s 1.1,
    opt-share 0.5, no noisy tenant, Poisson arrivals, sample 8, a single
    window, no faults, no tracing, no overload control. *)

val validate : params -> (unit, string) result

type tenant_stats = {
  tenant : int;
  shard : int;
  optimized : bool;
  jobs : int;
  requests : int;
  rank_jobs : int array;  (** jobs per mix rank *)
  window_rank_jobs : int array array;
      (** jobs per (window, mix rank); {!Slo_eval} turns these into
          per-window SLO samples without re-simulating *)
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

(** One (shard, window) cell of the overload-control ledger.  Serving
    counts ([aw_admitted_jobs], [aw_browned_jobs], [aw_served_requests],
    demand, multiplier) are attributed to the shard that actually served
    the jobs; [aw_offered_jobs]/[aw_routed_out_jobs] describe the tenants
    homed on the shard. *)
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

(** Everything the admission controller decided, exposed for reports,
    SLO scoring and tests.  [ol_tenant_segs] and [ol_tenant_shed] are what
    {!cells} walks under overload control. *)
type overload_stats = {
  ol_params : Overload.params;
  ol_ff_kernels : (Kernel.t * Kernel.t) array option;
      (** retry-suppressed kernel variants (the fault plan recompiled with
          a zero retry budget); [None] when no policy can reach them *)
  ol_bw_kernels : (Kernel.t * Kernel.t) array option;
      (** reduced-fidelity brownout variants; [None] off the [Brownout]
          policy *)
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
      (** the fleet latency histogram behind [agg_p50_us]/[agg_p99_us];
          under tracing it carries the exemplars that link percentile lines
          to sampled traces *)
  traces : Flo_obs.Trace.t list;
      (** sampled request traces, merged in shard order (then tenant, then
          replay order within a tenant) — identical at every [jobs] value;
          [[]] when [params.trace] is [None] *)
  total_jobs : int;
  total_requests : int;
  offered_rps : float;  (** modeled requests per modeled second *)
  agg_p50_us : float;
  agg_p99_us : float;
  fairness : float;  (** Jain's index over per-tenant mean latency *)
  noisy_p99_delta_pct : float option;
      (** mean p99 of tenants co-located with the noisy tenant vs the other
          shards, percent; [None] without a noisy tenant or a counterpart *)
  opt_p50_advantage_pct : float option;
      (** how much lower the optimized tenants' mean p50 is, percent *)
  overload : overload_stats option;
      (** [Some] exactly when [params.overload] is.  Under overload
          control, [tenant_stats.jobs] still counts arrivals but
          [requests], the histograms and every percentile describe the
          {e accepted} cohort only; shard stats use serving-shard
          attribution and [shard_stats.window_multipliers] come from the
          admission ledger. *)
}

val simulate :
  ?jobs:int -> ?metrics:Flo_obs.Metrics.t -> config:Flo_engine.Config.t ->
  params -> result
(** Compile the service kernels (one closed-loop run per (rank, mode)),
    then run the staged pipeline: {b plan} every tenant's arrivals in
    parallel per home shard; {b control} which jobs each (shard, window)
    serves; {b replay} the served cells in parallel per home shard (and let
    the tracer observe them); {b observe} by merging in shard order.
    Every field is a pure function of (params, config); the engine reads
    no clock.  With [metrics], per-tenant [traffic.jobs]/[traffic.requests]
    and per-shard [traffic.shard_requests] counters are recorded.

    The controller is chosen by [params.overload].  With [None], the
    identity controller admits every job at its home shard, whose
    per-window multiplier is [1 + window demand / window length].  With
    [Some], a sequential control loop runs instead: per-storage-node circuit
    breakers decide what each shard admits (an open shard's traffic takes
    the failover ring walk), and a per-(shard, window) admission controller
    keeps admitted demand at or under [capacity * window length] —
    suppressing retry storms first (fail-fast kernel variants), then
    shedding or degrading whole jobs by exact largest-remainder
    apportioning.  No PRNG draws are made, so the trajectory is
    byte-identical at every [jobs] value.  Additional [overload.*] counters
    and gauges are recorded under [metrics].
    @raise Invalid_argument when {!validate} rejects the params. *)

val cells : result -> int -> Tracer.cells
(** [cells r tenant] walks the tenant's served cells exactly as the replay
    did: every (window, rank) slice with its serving kernel, jobs and
    congestion multiplier, then any shed jobs.  Controls off, these are the
    tenant's [window_rank_jobs] under its shard's [window_multipliers];
    under overload control, its admission segments. *)
