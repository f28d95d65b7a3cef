open Flo_engine
open Flo_workloads

(* A service kernel is the batched-event compilation of one (app, layout)
   pair: one metrics-attached closed-loop run of the existing simulator is
   distilled into (requests per job, service demand per job, a compact
   per-request latency distribution).  The open-loop engine then models a
   whole job in O(latency classes) histogram updates instead of walking
   every element through the cache hierarchy — this is where the >= 10x
   modeled-requests-per-second over the per-element simulate loop comes
   from.  Compilation is deterministic (Run.run is), so kernels are
   identical on every machine and at every jobs setting. *)

type mode = Default | Inter

let mode_to_string = function Default -> "default" | Inter -> "inter"

type cls = { latency_us : float; weight : float }

type step = { step_name : string; step_us : float }

type profile = {
  rep_latency_us : float;
  rep_steps : step list;
  faulty : int;
}

type t = {
  app : string;
  mode : mode;
  requests_per_job : int;  (** block requests one run of the app issues *)
  accesses_per_job : int;  (** element accesses; layout-invariant per app *)
  demand_us_per_job : float;  (** summed per-request modeled service time *)
  elapsed_us_per_job : float;  (** modeled makespan of one run *)
  errors_per_job : int;  (** failed disk-read attempts one run suffers *)
  timeouts_per_job : int;  (** requests whose retry budget ran out *)
  classes : cls array;  (** per-request latency distribution; weights sum to 1 *)
  profiles : profile option array;
      (** per-class representative breakdowns, aligned with [classes];
          [[||]] when compiled without [~profile] *)
}

let classes_of_histogram h =
  let counts = Flo_obs.Histogram.counts h in
  let bounds = Flo_obs.Histogram.bounds h in
  let total = Flo_obs.Histogram.count h in
  if total = 0 then [||]
  else begin
    let lo = Flo_obs.Histogram.min_value h and hi = Flo_obs.Histogram.max_value h in
    let acc = ref [] in
    Array.iteri
      (fun i n ->
        if n > 0 then begin
          (* same clamp as Histogram.percentile: a bucket's representative
             latency is its upper edge bounded by the observed extremes *)
          let latency_us = Float.max lo (Float.min bounds.(i) hi) in
          acc := { latency_us; weight = float_of_int n /. float_of_int total } :: !acc
        end)
      counts;
    Array.of_list (List.rev !acc)
  end

(* Per-request breakdown capture for tracing, attached only under
   [~profile:true].  The collector replays the hierarchy's cost arithmetic
   from the event stream — the {e same} IEEE additions in the {e same}
   order ([access] in hierarchy.ml: l1 round trip, then the L2 hop on an L1
   miss, then the disk phase's extra+service chain, then per-prefetch
   transfer charges) — so each reconstructed latency lands in exactly the
   bucket the run's request_latency_us histogram counted it in, and the
   per-class breakdowns line up with [classes] by construction.

   It is flat: one reusable request state per thread, steps kept as (stage,
   us) pairs in growable arrays, and a [step list] built only for a request
   that becomes its bucket's new representative — so a request costs no
   allocation beyond its events' own unless it takes over a bucket. *)

(* what a step charged; constant constructors, so recording one into a
   [stage array] is a plain int store *)
type stage =
  | L1_hit
  | L1_miss
  | L2_hit
  | L2_miss
  | Disk_read
  | Disk_fault
  | Disk_retry
  | Disk_timeout
  | Disk_failover
  | L2_prefetch

let stage_name = function
  | L1_hit -> "l1.hit"
  | L1_miss -> "l1.miss"
  | L2_hit -> "l2.hit"
  | L2_miss -> "l2.miss"
  | Disk_read -> "disk.read"
  | Disk_fault -> "disk.fault"
  | Disk_retry -> "disk.retry"
  | Disk_timeout -> "disk.timeout"
  | Disk_failover -> "disk.failover"
  | L2_prefetch -> "l2.prefetch"

(* all-float, so the running sums update in place without boxing *)
type sums = { mutable cost : float; mutable service : float  (** disk-phase accumulator *) }

type open_req = {
  mutable active : bool;
  sums : sums;
  mutable in_service : bool;
  mutable flushed : bool;  (** service already folded into [cost] *)
  mutable faulty : bool;
  mutable steps : int;
  mutable stages : stage array;
  mutable us : float array;  (** each step's charge *)
}

let profile_collector ~(costs : Flo_storage.Hierarchy.costs) ~prefetch_charge_us ~shape
    =
  let reqs = ref [||] in
  (* per histogram bucket: the representative so far, and the faulty count *)
  let nb = Flo_obs.Histogram.bucket_count shape in
  let rep_latency = Array.make nb 0. and rep_steps = Array.make nb None in
  let faulty = Array.make nb 0 in
  let flush_service r =
    if r.in_service && not r.flushed then begin
      r.sums.cost <- r.sums.cost +. r.sums.service;
      r.flushed <- true
    end
  in
  let steps_of r =
    let rec go k acc =
      if k < 0 then acc
      else go (k - 1) ({ step_name = stage_name r.stages.(k); step_us = r.us.(k) } :: acc)
    in
    go (r.steps - 1) []
  in
  let finalize r =
    flush_service r;
    r.active <- false;
    let cost = r.sums.cost in
    let i = Flo_obs.Histogram.value_index shape cost in
    (* the class representative is the max-latency request; ties keep the
       first seen, so the choice is stable in replay order *)
    if Option.is_none rep_steps.(i) || cost > rep_latency.(i) then begin
      rep_latency.(i) <- cost;
      rep_steps.(i) <- Some (steps_of r)
    end;
    if r.faulty then faulty.(i) <- faulty.(i) + 1
  in
  let start thread =
    if thread >= Array.length !reqs then begin
      let grown =
        Array.init (max (thread + 1) (2 * Array.length !reqs)) (fun _ ->
            {
              active = false;
              sums = { cost = 0.; service = 0. };
              in_service = false;
              flushed = false;
              faulty = false;
              steps = 0;
              stages = Array.make 16 L1_hit;
              us = Array.make 16 0.;
            })
      in
      Array.blit !reqs 0 grown 0 (Array.length !reqs);
      reqs := grown
    end;
    let r = !reqs.(thread) in
    if r.active then finalize r;
    r.active <- true;
    r.sums.cost <- costs.Flo_storage.Hierarchy.l1_hit_us;
    r.sums.service <- 0.;
    r.in_service <- false;
    r.flushed <- false;
    r.faulty <- false;
    r.steps <- 0
  in
  let step r stage us =
    if r.steps = Array.length r.stages then begin
      let n = 2 * r.steps in
      let stages = Array.make n L1_hit and us' = Array.make n 0. in
      Array.blit r.stages 0 stages 0 r.steps;
      Array.blit r.us 0 us' 0 r.steps;
      r.stages <- stages;
      r.us <- us'
    end;
    r.stages.(r.steps) <- stage;
    r.us.(r.steps) <- us;
    r.steps <- r.steps + 1
  in
  let feed (e : Flo_obs.Event.t) =
    let thread = e.Flo_obs.Event.thread in
    match e.Flo_obs.Event.kind with
    | Flo_obs.Event.Access -> start thread
    | kind ->
      if thread < Array.length !reqs && !reqs.(thread).active then begin
        (* events outside an open request are install/eviction noise *)
        let r = !reqs.(thread) in
        let lat = e.Flo_obs.Event.latency_us in
        match (kind, e.Flo_obs.Event.layer) with
        | Flo_obs.Event.Hit, Flo_obs.Event.L1 ->
          step r L1_hit costs.Flo_storage.Hierarchy.l1_hit_us
        | Flo_obs.Event.Miss, Flo_obs.Event.L1 ->
          step r L1_miss costs.Flo_storage.Hierarchy.l1_hit_us;
          r.sums.cost <- r.sums.cost +. costs.Flo_storage.Hierarchy.l2_hit_us
        | Flo_obs.Event.Hit, Flo_obs.Event.L2 ->
          step r L2_hit costs.Flo_storage.Hierarchy.l2_hit_us
        | Flo_obs.Event.Miss, Flo_obs.Event.L2 ->
          step r L2_miss costs.Flo_storage.Hierarchy.l2_hit_us;
          r.in_service <- true
        | Flo_obs.Event.Disk_read, _ ->
          step r Disk_read lat;
          r.sums.service <- r.sums.service +. lat
        | Flo_obs.Event.Fault, _ ->
          step r Disk_fault lat;
          r.sums.service <- r.sums.service +. lat;
          r.faulty <- true
        | Flo_obs.Event.Retry, _ ->
          step r Disk_retry lat;
          r.sums.service <- r.sums.service +. lat;
          r.faulty <- true
        | Flo_obs.Event.Timeout, _ ->
          step r Disk_timeout 0.;
          r.faulty <- true
        | Flo_obs.Event.Failover, _ ->
          step r Disk_failover lat;
          r.sums.service <- r.sums.service +. lat;
          r.faulty <- true
        | Flo_obs.Event.Prefetch, _ ->
          (* readahead transfer shares are charged after the disk phase *)
          flush_service r;
          step r L2_prefetch prefetch_charge_us;
          r.sums.cost <- r.sums.cost +. prefetch_charge_us
        | ( ( Flo_obs.Event.Access | Flo_obs.Event.Evict | Flo_obs.Event.Demote
            | Flo_obs.Event.Other _ ),
            _ )
        | (Flo_obs.Event.Hit | Flo_obs.Event.Miss), Flo_obs.Event.Disk ->
          ()
      end
  in
  (* still-open tail requests finalize in thread order *)
  let flush () = Array.iter (fun r -> if r.active then finalize r) !reqs in
  let representatives () =
    Array.init nb (fun i ->
        Option.map
          (fun steps ->
            { rep_latency_us = rep_latency.(i); rep_steps = steps; faulty = faulty.(i) })
          rep_steps.(i))
  in
  ({ Flo_obs.Sink.emit = feed; flush }, representatives)

(* align captured buckets with {!classes_of_histogram}'s nonzero-bucket
   order, so [profiles.(i)] describes [classes.(i)] *)
let profiles_of_buckets h buckets =
  let counts = Flo_obs.Histogram.counts h in
  let acc = ref [] in
  Array.iteri (fun i n -> if n > 0 then acc := buckets.(i) :: !acc) counts;
  Array.of_list (List.rev !acc)

let compile ?(sample = 1) ?(faults = Flo_faults.Fault_plan.empty) ?(profile = false)
    ~config ~mode app =
  let layouts =
    match mode with
    | Default -> Experiment.default_layouts app
    | Inter -> Experiment.inter_layouts config app
  in
  let registry = Flo_obs.Metrics.create () in
  (* a fresh injector per compilation: its per-node PRNG substreams are a
     pure function of the plan's seed, so kernels stay deterministic no
     matter how many are compiled or in which order.  An empty plan skips
     the hook entirely — byte-identical to the fault-free path. *)
  let injector =
    if Flo_faults.Fault_plan.is_empty faults then None
    else
      Some
        (Flo_faults.Injector.create
           ~storage_nodes:config.Config.topology.Flo_storage.Topology.storage_nodes
           faults)
  in
  (* the untraced path passes no sink at all: byte-identical to before the
     tracing layer existed, and the hierarchy skips event construction *)
  let collector =
    if not profile then None
    else begin
      let shape = Flo_obs.Histogram.create () in
      let prefetch_charge_us =
        0.2 *. config.Config.disk_params.Flo_storage.Disk.transfer_us
      in
      let sink, buckets =
        profile_collector ~costs:config.Config.costs ~prefetch_charge_us ~shape
      in
      Some (sink, buckets, shape)
    end
  in
  let sink = Option.map (fun (s, _, _) -> s) collector in
  let r = Run.run ?faults:injector ?sink ~sample ~metrics:registry ~config ~layouts app in
  let errors_per_job, timeouts_per_job =
    match injector with
    | None -> (0, 0)
    | Some inj ->
      let c = Flo_faults.Injector.counts inj in
      (c.Flo_faults.Injector.faults, c.Flo_faults.Injector.timeouts)
  in
  let h = Flo_obs.Metrics.find_histogram registry "request_latency_us" in
  let classes = match h with Some h -> classes_of_histogram h | None -> [||] in
  let demand_us_per_job = match h with Some h -> Flo_obs.Histogram.sum h | None -> 0. in
  let profiles =
    match (collector, h) with
    | Some (_, buckets, shape), Some h when Flo_obs.Histogram.same_shape shape h ->
      profiles_of_buckets h (buckets ())
    | _ -> [||]
  in
  {
    app = app.App.name;
    mode;
    requests_per_job = r.Run.block_requests;
    accesses_per_job = r.Run.element_accesses;
    demand_us_per_job;
    elapsed_us_per_job = r.Run.elapsed_us;
    errors_per_job;
    timeouts_per_job;
    classes;
    profiles;
  }

(* Apportion [requests] across the latency classes by largest remainder —
   deterministic (no draws), exact (counts sum to [requests]), and faithful
   to the distribution to within one request per class. *)
let apportion t ~requests =
  let k = Array.length t.classes in
  if requests <= 0 || k = 0 then [||]
  else begin
    let counts = Array.make k 0 in
    let rems = Array.make k (0., 0) in
    let assigned = ref 0 in
    Array.iteri
      (fun i c ->
        let exact = c.weight *. float_of_int requests in
        let base = int_of_float exact in
        counts.(i) <- base;
        assigned := !assigned + base;
        rems.(i) <- (exact -. float_of_int base, i))
      t.classes;
    (* hand the leftover requests to the largest fractional remainders;
       ties broken by class index so the result is order-stable *)
    Array.sort
      (fun (ra, ia) (rb, ib) -> if ra = rb then compare ia ib else compare rb ra)
      rems;
    let leftover = requests - !assigned in
    for j = 0 to leftover - 1 do
      let _, i = rems.(j mod k) in
      counts.(i) <- counts.(i) + 1
    done;
    counts
  end
