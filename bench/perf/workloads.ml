(* The five workloads.  Each is a closed loop over one iteration.  The
   traced twin of an iteration does the same work with every layer call
   inside a span; where one call covers two layers, a calibration, run once
   after the first traced iteration, times the call with one layer switched
   off, and the difference splits that span in every traced iteration.
   Calibration also runs the invariant checks that need extra runs. *)

open Flo_storage
open Flo_core
open Flo_workloads
open Flo_engine
module Tr = Flo_traffic
module Ledger = Measure.Ledger

let config = Config.default
let apps = Suite.all

(* What the harness counts for one iteration. *)
type tally = {
  ops : int;  (** checked operations: simulations, traffic runs or compiles *)
  failed : int;  (** operations whose own invariant failed *)
  work : float;  (** units of [work_per_s] the iteration did *)
  op_s : float array;  (** per-operation latencies; pass-compile only *)
}

(* Result of the calibration that follows the first traced iteration. *)
type 'r calibration = {
  layers : Ledger.t -> 'r -> (string * float) list;
      (** per-layer metrics of one traced iteration, from its spans *)
  violations : string list;  (** invariants the extra runs found broken *)
}

(* A workload over inputs ['i] (built from the seed) and iteration results
   ['r]. *)
type ('i, 'r) workload = {
  name : string;
  work_unit : string;  (** what [work_per_s] counts *)
  min_iters : int;
  setup : seed:int -> 'i;
  iterate : 'i -> 'r;
  traced : 'i -> Ledger.t -> 'r;
  calibrate : 'i -> 'r -> 'r calibration;
  tally : 'r -> tally;
  render : 'r -> (string * string) list;
      (** modeled outputs: compared with the seed-0 expected file and
          between iterations *)
}

type t = W : ('i, 'r) workload -> t

let name (W w) = w.name

(* Iterations written once for both runs take the span function as an
   argument: a no-op untraced, the ledger's when traced. *)
type span = { span : 'a. string -> (unit -> 'a) -> 'a }

let untimed = { span = (fun _ f -> f ()) }
let spans l = { span = (fun name f -> Ledger.span l name f) }

(* ---- shared pieces ------------------------------------------------------ *)

let g = Printf.sprintf "%.17g"
let digest s = Digest.to_hex (Digest.string s)
let per_s n s = if s > 0. then float_of_int n /. s else 0.
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

(* seed 0 keeps the identity thread mapping; seed k permutes threads over
   compute nodes as Fig. 7(b)'s mappings do *)
let mapping_of_seed seed =
  if seed = 0 then None else Some (Experiment.random_mapping ~seed config)

let stats_string (s : Stats.t) =
  String.concat ","
    (List.map string_of_int
       [ s.accesses; s.hits; s.misses; s.evictions; s.demotions; s.prefetches; s.prefetch_hits ])

let result_lines prefix (r : Run.result) =
  let k name = prefix ^ "." ^ name in
  let i = string_of_int in
  let nodes a = digest (String.concat ";" (Array.to_list (Array.map stats_string a))) in
  [
    (k "elapsed_us", g r.elapsed_us); (k "l1", stats_string r.l1); (k "l2", stats_string r.l2);
    (k "disk_reads", i r.disk_reads); (k "block_requests", i r.block_requests);
    (k "element_accesses", i r.element_accesses); (k "iterations", i r.iterations);
    (k "prefetches", i r.prefetches); (k "prefetch_hits", i r.prefetch_hits);
    (k "l1_nodes", nodes r.l1_nodes); (k "l2_nodes", nodes r.l2_nodes);
    (k "thread_us", digest (String.concat "," (Array.to_list (Array.map g r.thread_us))));
  ]

let plan_digest plan = digest (Format.asprintf "%a" Optimizer.pp plan)

let compile_plan (app : App.t) =
  Optimizer.run ~spec:(Config.spec_for config app.program) app.program

(* Counts the traced replay gathers beside [Run.result]. *)
type counters = {
  mutable replayed : int;  (** stream elements offered to the client buffers *)
  mutable generated : int;  (** element accesses Tracegen enumerated *)
  mutable events : int;  (** events the analyzer consumed *)
}

let counters () = { replayed = 0; generated = 0; events = 0 }

let reset c =
  c.replayed <- 0;
  c.generated <- 0;
  c.events <- 0

(* [Run.run] (LRU caching, no faults, no readahead) with its two layers
   called here: Tracegen builds the per-thread block streams, then the
   streams replay through Flat_lru client buffers and Hierarchy.access in
   Run.run's round-robin interleave.  The result must equal Run.run's
   field for field. *)
let replay l c ?mapping ?sink ?(sample = 1) (app : App.t) ~layouts =
  let topo = config.topology in
  let threads = Topology.threads topo in
  let blocks_per_thread = config.blocks_per_thread in
  let streams =
    Ledger.span l "tracegen" (fun () ->
        List.map
          (fun nest ->
            ( nest,
              Tracegen.nest_streams ~layouts ~block_elems:topo.block_elems ~threads
                ~blocks_per_thread ~cluster:(Topology.threads_per_io topo) ~sample nest ))
          app.program.nests)
  in
  Ledger.span l "storage" (fun () ->
      let hier =
        Hierarchy.create ?mapping ~costs:config.costs ~disk_params:config.disk_params
          ~readahead:0 ?sink topo
      in
      let buffers =
        Array.init threads (fun _ -> Flat_lru.create ~capacity:config.client_buffer_blocks)
      in
      let block_requests = ref 0 and iterations = ref 0 and element_accesses = ref 0 in
      List.iter
        (fun ((nest : Flo_poly.Loop_nest.t), streams) ->
          let iters = Tracegen.iterations_per_thread ~threads ~blocks_per_thread ~sample nest in
          let nrefs = List.length nest.refs in
          c.generated <- c.generated + (Array.fold_left ( + ) 0 iters * nrefs);
          c.replayed <-
            c.replayed + (nest.weight * Array.fold_left (fun a s -> a + Array.length s) 0 streams);
          for _rep = 1 to nest.weight do
            let cursors = Array.make threads 0 in
            let live = ref threads in
            while !live > 0 do
              live := 0;
              for t = 0 to threads - 1 do
                let stream = streams.(t) in
                let len = Array.length stream in
                let upto = min len (cursors.(t) + config.quantum) in
                for k = cursors.(t) to upto - 1 do
                  let b : Block.t = stream.(k) in
                  if Flat_lru.touch buffers.(t) (b :> int) then
                    Hierarchy.add_cpu_us hier ~thread:t config.client_hit_us
                  else begin
                    ignore (Flat_lru.insert buffers.(t) (b :> int));
                    incr block_requests;
                    Hierarchy.access hier ~thread:t b
                  end
                done;
                cursors.(t) <- upto;
                if upto < len then incr live
              done
            done;
            Array.iteri
              (fun t n ->
                iterations := !iterations + n;
                element_accesses := !element_accesses + (n * nrefs);
                Hierarchy.add_cpu_us hier ~thread:t (float_of_int n *. app.cpu_us_per_iteration))
              iters
          done)
        streams;
      (match sink with Some s -> s.Flo_obs.Sink.flush () | None -> ());
      {
        Run.app = app.name;
        elapsed_us = Hierarchy.elapsed_us hier;
        l1 = Hierarchy.l1_stats hier;
        l2 = Hierarchy.l2_stats hier;
        disk_reads = Hierarchy.disk_reads hier;
        block_requests = !block_requests;
        element_accesses = !element_accesses;
        iterations = !iterations;
        prefetches = Hierarchy.prefetches hier;
        prefetch_hits = Hierarchy.prefetch_hits hier;
        l1_nodes =
          Array.init (Hierarchy.io_nodes hier) (fun i -> Stats.merge [ Hierarchy.l1_stats_of hier i ]);
        l2_nodes =
          Array.init (Hierarchy.storage_nodes hier) (fun i ->
              Stats.merge [ Hierarchy.l2_stats_of hier i ]);
        thread_us = Hierarchy.thread_clocks_us hier;
      })

(* Step I (Weights.group_refs + Array_partition.solve) and Step II
   (Internode.layout_for, with the pass's retreat to the I/O layer) of every
   array in the plan, timed call by call: the parts of core.plan_s.  Each
   result must match the plan's decision. *)
let pass_steps (plan : Optimizer.plan) =
  let program = plan.program in
  let spec = Config.spec_for config program in
  List.fold_left
    (fun (s1, s2, bad) (d : Optimizer.decision) ->
      let decl = Flo_poly.Program.array_decl program d.array_id in
      if decl.opaque then (s1, s2, bad)
      else
        let partition, t1 =
          Measure.time (fun () ->
              Array_partition.solve (Weights.group_refs (Flo_poly.Program.refs_to program d.array_id)))
        in
        let agrees =
          match (d.reason, partition) with
          (* the pass drops a partition it declines for low coverage *)
          | Optimizer.Low_coverage c, Some p -> p.coverage = c
          | _ -> partition = d.partition
        in
        let bad = if agrees then bad else bad + 1 in
        let tried_step2 =
          match d.reason with Optimizer.Optimized | Step2_failed _ -> true | _ -> false
        in
        match partition with
        | Some partition when tried_step2 ->
          let layout, t2 =
            Measure.time (fun () ->
                let at scope = Internode.layout_for ~space:decl.space ~partition spec scope in
                match at plan.scope with
                | l -> Some l
                | exception Invalid_argument _ -> (
                  match at Internode.Io_only with
                  | l -> Some l
                  | exception Invalid_argument _ -> None))
          in
          let expected = if d.stage = Optimizer.Canonical then None else Some d.layout in
          (s1 +. t1, s2 +. t2, if layout = expected then bad else bad + 1)
        | _ -> (s1 +. t1, s2, bad))
    (0., 0., 0) plan.decisions

let all_steps plans =
  List.fold_left
    (fun (a1, a2, ab) plan ->
      let s1, s2, bad = pass_steps plan in
      (a1 +. s1, a2 +. s2, ab + bad))
    (0., 0., 0) plans

let core_layers l plans =
  let s1, s2, _ = all_steps plans in
  [
    ("core.plan_s", Ledger.self_s l "core.plan"); ("core.step1_us", s1 *. 1e6);
    ("core.step2_us", s2 *. 1e6);
    ("core.arrays_optimized", float_of_int (sum Optimizer.optimized_count plans));
  ]

let core_violations plans =
  let _, _, bad = all_steps plans in
  if bad = 0 then [] else [ Printf.sprintf "%d Step I/II results differ from the plan's decisions" bad ]

let tracegen_layers l c =
  let s = Ledger.self_s l "tracegen" in
  [ ("tracegen.s", s); ("tracegen.elems_per_s", per_s c.generated s) ]

let storage_layers ~replay_s c (runs : Run.result list) =
  let block_requests = sum (fun (r : Run.result) -> r.block_requests) runs in
  let stat f = sum (fun (r : Run.result) -> f r) runs in
  [
    ("storage.replay_s", replay_s); ("storage.blocks_per_s", per_s block_requests replay_s);
    ("storage.block_requests", float_of_int block_requests);
    ("storage.client_hit_ratio", ratio (c.replayed - block_requests) c.replayed);
    ("storage.l1_hit_ratio", ratio (stat (fun r -> r.l1.hits)) (stat (fun r -> r.l1.accesses)));
    ("storage.l2_hit_ratio", ratio (stat (fun r -> r.l2.hits)) (stat (fun r -> r.l2.accesses)));
    ("storage.disk_reads", float_of_int (stat (fun r -> r.disk_reads)));
  ]

type sweep_input = { mapping : int array option; c : counters }

let sweep_setup ~seed = { mapping = mapping_of_seed seed; c = counters () }

(* ---- suite-sweep -------------------------------------------------------- *)

type sweep_run = { app : App.t; plan : Optimizer.plan; default : Run.result; inter : Run.result }

let sweep_render runs =
  List.concat_map
    (fun r ->
      ((r.app.name ^ ".plan"), plan_digest r.plan)
      :: result_lines (r.app.name ^ ".default") r.default
      @ result_lines (r.app.name ^ ".inter") r.inter)
    runs

let suite_sweep =
  W
    {
      name = "suite-sweep";
      work_unit = "elem";
      min_iters = 5;
      setup = sweep_setup;
      iterate =
        (fun { mapping; _ } ->
          List.map
            (fun app ->
              let plan = Experiment.inter_plan config app in
              {
                app;
                plan;
                default = Run.run ?mapping ~config ~layouts:(Experiment.default_layouts app) app;
                inter = Run.run ?mapping ~config ~layouts:(Optimizer.layout_of plan) app;
              })
            apps);
      traced =
        (fun { mapping; c } l ->
          reset c;
          List.map
            (fun app ->
              let plan = Ledger.span l "core.plan" (fun () -> compile_plan app) in
              let default = replay l c ?mapping app ~layouts:(Experiment.default_layouts app) in
              let inter = replay l c ?mapping app ~layouts:(Optimizer.layout_of plan) in
              { app; plan; default; inter })
            apps);
      calibrate =
        (fun { mapping; c } runs ->
          let mismatches =
            List.concat_map
              (fun r ->
                let differs layouts replayed = Run.run ?mapping ~config ~layouts r.app <> replayed in
                (if differs (Experiment.default_layouts r.app) r.default then
                   [ r.app.name ^ "/default" ]
                 else [])
                @
                if differs (Optimizer.layout_of r.plan) r.inter then [ r.app.name ^ "/inter" ]
                else [])
              runs
          in
          let plans runs = List.map (fun r -> r.plan) runs in
          {
            layers =
              (fun l runs ->
                core_layers l (plans runs) @ tracegen_layers l c
                @ storage_layers ~replay_s:(Ledger.self_s l "storage") c
                    (List.concat_map (fun r -> [ r.default; r.inter ]) runs));
            violations =
              core_violations (plans runs)
              @ List.map (fun run -> "harness replay differs from Run.run on " ^ run) mismatches;
          });
      tally =
        (fun runs ->
          {
            ops = 2 * List.length runs;
            failed = 0;
            work =
              float_of_int
                (sum (fun r -> r.default.element_accesses + r.inter.element_accesses) runs);
            op_s = [||];
          });
      render = sweep_render;
    }

(* ---- fidelity-sweep ----------------------------------------------------- *)

let fidelity_sample = 8

type fidelity_run = {
  app : App.t;
  plan : Optimizer.plan;
  fid : Flo_fidelity.Fidelity.t;
  run : Run.result;
}

let fidelity_render runs =
  let module F = Flo_fidelity.Fidelity in
  List.concat_map
    (fun r ->
      let k name = r.app.name ^ ".fidelity." ^ name in
      let i = string_of_int in
      [
        (k "rows", i (List.length r.fid.rows)); (k "max_abs_drift", i (F.max_abs_drift r.fid));
        (k "max_rel_drift", g (F.max_rel_drift r.fid)); (k "sharing_drift", i (F.sharing_drift r.fid));
        (k "pairs_drift", i (F.pairs_drift r.fid)); (k "flagged", i (List.length (F.flagged r.fid)));
        (k "layer_violations", i (List.length (F.layer_violations r.fid)));
      ]
      @ result_lines (r.app.name ^ ".run") r.run)
    runs

let fidelity_sweep =
  W
    {
      name = "fidelity-sweep";
      work_unit = "elem";
      min_iters = 5;
      setup = sweep_setup;
      iterate =
        (fun { mapping; _ } ->
          List.map
            (fun app ->
              let plan = Experiment.inter_plan config app in
              let fid, run =
                Experiment.fidelity ?mapping ~sample:fidelity_sample
                  ~layouts:(Optimizer.layout_of plan) config app
              in
              { app; plan; fid; run })
            apps);
      traced =
        (fun { mapping; c } l ->
          reset c;
          List.map
            (fun (app : App.t) ->
              let plan = Ledger.span l "core.plan" (fun () -> compile_plan app) in
              let layouts = Optimizer.layout_of plan in
              let analyzer = Flo_analysis.Analyzer.create () in
              let run =
                replay l c ?mapping ~sink:(Flo_analysis.Analyzer.sink analyzer)
                  ~sample:fidelity_sample app ~layouts
              in
              c.events <- c.events + Flo_analysis.Analyzer.event_count analyzer;
              let predict =
                Ledger.span l "fidelity.predict" (fun () ->
                    Flo_fidelity.Predict.compute ~blocks_per_thread:config.blocks_per_thread
                      ~sample:fidelity_sample ~block_elems:config.topology.block_elems
                      ~threads:(Config.threads config) ~name:app.name ~layouts app.program)
              in
              let fid =
                Ledger.span l "fidelity.join" (fun () ->
                    Flo_fidelity.Fidelity.join ~predict ~observed:analyzer ())
              in
              { app; plan; fid; run })
            apps);
      calibrate =
        (fun { mapping; c } runs ->
          (* the same replays with a sink that drops every event: the
             storage layer's share of the analyzed replay, the rest of which
             is the analyzer's feed *)
          let cal = Ledger.create () in
          let ignore_sink = Flo_obs.Sink.callback ignore in
          Gc.compact ();
          List.iter
            (fun r ->
              ignore
                (replay cal (counters ()) ?mapping ~sink:ignore_sink ~sample:fidelity_sample r.app
                   ~layouts:(Optimizer.layout_of r.plan)))
            runs;
          let replay_s = Ledger.self_s cal "storage" in
          let plans runs = List.map (fun r -> r.plan) runs in
          {
            layers =
              (fun l runs ->
                let feed_s = Ledger.self_s l "storage" -. replay_s in
                core_layers l (plans runs) @ tracegen_layers l c
                @ storage_layers ~replay_s c (List.map (fun r -> r.run) runs)
                @ [
                    ("analysis.feed_s", feed_s); ("analysis.events", float_of_int c.events);
                    ("analysis.events_per_s", per_s c.events feed_s);
                    ("fidelity.predict_s", Ledger.self_s l "fidelity.predict");
                    ("fidelity.join_s", Ledger.self_s l "fidelity.join");
                  ]);
            violations = core_violations (plans runs);
          });
      tally =
        (fun runs ->
          let drift_free fid =
            Flo_fidelity.Fidelity.max_abs_drift fid = 0 && Flo_fidelity.Fidelity.flagged fid = []
          in
          {
            ops = List.length runs;
            failed = sum (fun r -> if drift_free r.fid then 0 else 1) runs;
            work = float_of_int (sum (fun r -> r.run.element_accesses) runs);
            op_s = [||];
          });
      render = fidelity_render;
    }

(* ---- traffic-fleet and overload-storm ----------------------------------- *)

let ok_or_fail = function Ok v -> v | Error msg -> failwith msg

let fleet_params ~seed =
  {
    (Tr.Engine.default_params ~mix:apps) with
    tenants = 16384;
    seed;
    duration_s = 60.;
    rate = 0.5;
    process = Tr.Arrivals.Bursty { on_s = 5.; off_s = 15. };
    windows = 8;
    sample = 8;
  }

let slo_spec = ok_or_fail (Flo_obs.Slo.parse "p99<120s@99")

(* the plain kernels the engine compiles, one (default, inter) pair per
   app, fanned over [jobs] domains as the engine fans them *)
let compile_kernels ~jobs (p : Tr.Engine.params) =
  Array.of_list
    (Experiment.map_apps ~jobs
       (fun app ->
         let compile mode = Tr.Kernel.compile ~sample:p.sample ~faults:p.faults ~config ~mode app in
         (compile Tr.Kernel.Default, compile Tr.Kernel.Inter))
       p.mix)

(* Engine results hold per-tenant state; an iteration keeps only what its
   reports print, so one result is alive at a time. *)
type fleet_run = {
  jobs : int;  (** offered modeled jobs *)
  kernels : (Tr.Kernel.t * Tr.Kernel.t) array;
  verdicts : (string * string) list;
  summaries : (string * string) list;  (** digests of both report summaries *)
}

let fleet_jobs = 2

let fleet_verdicts (r : Tr.Engine.result) slo =
  [ ("traffic.verdict", Tr.Traffic_report.verdict_line r); ("slo.verdict", Tr.Slo_report.verdict_line r slo) ]

let fleet_iteration p s =
  let result = s.span "traffic.simulate" (fun () -> Tr.Engine.simulate ~jobs:fleet_jobs ~config p) in
  let slo = s.span "traffic.slo_eval" (fun () -> Tr.Slo_eval.evaluate slo_spec result) in
  s.span "traffic.report" (fun () ->
      {
        jobs = result.total_jobs;
        kernels = result.kernels;
        verdicts = fleet_verdicts result slo;
        summaries =
          [
            ("traffic.summary", digest (Tr.Traffic_report.summary result));
            ("slo.summary", digest (Tr.Slo_report.summary result slo));
          ];
      })

let traffic_fleet =
  W
    {
      name = "traffic-fleet";
      work_unit = "job";
      min_iters = 10;
      setup = fleet_params;
      iterate = (fun p -> fleet_iteration p untimed);
      traced = (fun p l -> fleet_iteration p (spans l));
      calibrate =
        (fun p r ->
          let kernels, compile_s =
            Measure.time_compacted (fun () -> compile_kernels ~jobs:fleet_jobs p)
          in
          let seq, seq_s = Measure.time_compacted (fun () -> Tr.Engine.simulate ~jobs:1 ~config p) in
          {
            layers =
              (fun l r ->
                let simulate_s = Ledger.self_s l "traffic.simulate" in
                [
                  ("traffic.kernel_compile_s", compile_s);
                  ("traffic.engine_s", simulate_s -. compile_s);
                  ("traffic.slo_eval_s", Ledger.self_s l "traffic.slo_eval");
                  ("traffic.report_s", Ledger.self_s l "traffic.report");
                  ("traffic.jobs", float_of_int r.jobs);
                  ("parallel.speedup", if simulate_s > 0. then seq_s /. simulate_s else 0.);
                ]);
            violations =
              (if kernels = r.kernels then [] else [ "kernels compiled per app differ from the engine's" ])
              @
              if fleet_verdicts seq (Tr.Slo_eval.evaluate slo_spec seq) = r.verdicts then []
              else [ Printf.sprintf "jobs 1 and jobs %d verdicts differ" fleet_jobs ];
          });
      tally = (fun r -> { ops = 1; failed = 0; work = float_of_int r.jobs; op_s = [||] });
      render = (fun r -> r.verdicts @ r.summaries);
    }

(* admission capacity (max sustainable utilization per shard and window):
   puts the seed-0 shed fraction inside [0.3, 0.7], where priority
   shedding has both cohorts to choose from *)
let storm_capacity = 550.

(* the fault plan keeps flopt's default fault seed: drawn from the workload
   seed, which faults hit would swing the sampled-trace volume, and with it
   time and memory, by ~7% between seeds *)
let storm_faults =
  Flo_faults.Fault_plan.with_seed
    (ok_or_fail (Flo_faults.Fault_plan.of_string "read-error:rate=0.05;retry:max=3,base=20000"))
    42

let storm_params ~seed =
  {
    (fleet_params ~seed) with
    tenants = 4096;
    rate = 0.1;
    windows = 16;
    faults = storm_faults;
    overload =
      Some
        {
          Tr.Overload.default with
          shed = Some Tr.Overload.Priority;
          capacity = storm_capacity;
          breaker =
            Some
              (ok_or_fail
                 (Flo_faults.Breaker.of_string "open=0.1,close=0.02,cooldown=2,probe=0.2,node=0"));
        };
    trace = Some { Tr.Tracer.default with sample_rate = 4096 };
  }

type storm_run = {
  jobs : int;  (** offered modeled jobs *)
  balanced : bool;  (** offered = admitted + shed requests *)
  verdicts : (string * string) list;
  encoded : string list;  (** the sampled traces, one JSON line each *)
}

let storm_simulate p = Tr.Engine.simulate ~jobs:1 ~config p

let storm_verdicts (r : Tr.Engine.result) =
  match r.overload with
  | None -> failwith "overload run lost its stats"
  | Some ol ->
    ( [
        ("traffic.verdict", Tr.Traffic_report.verdict_line r);
        ("overload.line", Tr.Traffic_report.overload_line r ol);
      ],
      ol.ol_offered_requests = ol.ol_admitted_requests + ol.ol_shed_requests )

let storm_iteration p s =
  let result = s.span "traffic.simulate" (fun () -> storm_simulate p) in
  let encoded = s.span "trace.encode" (fun () -> List.map Flo_obs.Trace.to_json result.traces) in
  let verdicts, balanced = storm_verdicts result in
  { jobs = result.total_jobs; balanced; verdicts; encoded }

let overload_storm =
  W
    {
      name = "overload-storm";
      work_unit = "job";
      min_iters = 5;
      setup = storm_params;
      iterate = (fun p -> storm_iteration p untimed);
      traced = (fun p l -> storm_iteration p (spans l));
      calibrate =
        (fun p r ->
          (* the simulate span splits into three shares that add up to it:
             the plain kernel compile; the same run with tracing off, minus
             that compile, which is the control loop with its retry-aware
             recompile and the replay under it; and the tracer's sweep,
             tracing on minus off.  The plain engine's replay gets no share
             of its own: on a 2-core host it takes about 0.06 s beside a
             compile that varies by 0.1 s between runs. *)
          let _, compile_s = Measure.time_compacted (fun () -> compile_kernels ~jobs:1 p) in
          let untraced, untraced_s =
            Measure.time_compacted (fun () -> storm_simulate { p with trace = None })
          in
          {
            layers =
              (fun l r ->
                [
                  ("traffic.kernel_compile_s", compile_s);
                  ("traffic.control_s", untraced_s -. compile_s);
                  ("traffic.trace_sweep_s", Ledger.self_s l "traffic.simulate" -. untraced_s);
                  ("traffic.jobs", float_of_int r.jobs);
                  ("trace.encode_s", Ledger.self_s l "trace.encode");
                  ("trace.sampled_traces", float_of_int (List.length r.encoded));
                ]);
            violations =
              (if fst (storm_verdicts untraced) = r.verdicts then []
               else [ "tracing changed the modeled verdicts" ]);
          });
      tally =
        (fun r ->
          { ops = 1; failed = (if r.balanced then 0 else 1); work = float_of_int r.jobs; op_s = [||] });
      render =
        (fun r ->
          r.verdicts
          @ [
              ("trace.count", string_of_int (List.length r.encoded));
              ("trace.digest", digest (String.concat "\n" r.encoded));
            ]);
    }

(* ---- pass-compile ------------------------------------------------------- *)

let scopes = [ Internode.Io_only; Internode.Storage_only; Internode.Both ]

(* the 16 suite programs and the seed's synthetic ones, each under every
   scope: one compile is one op *)
let compile_ops ~seed =
  let programs = List.map (fun (a : App.t) -> a.program) apps @ Gen.corpus ~seed in
  Array.of_list (List.concat_map (fun prog -> List.map (fun scope -> (prog, scope)) scopes) programs)

type compile_run = {
  ops : (Flo_poly.Program.t * Internode.scope) array;
  plans : (Optimizer.plan, string) result array;
  op_s : float array;
}

let compile_iteration ops s =
  let op_s = Array.make (Array.length ops) 0. in
  let plans =
    Array.mapi
      (fun k ((prog : Flo_poly.Program.t), scope) ->
        let t0 = Measure.now_ns () in
        let plan =
          match
            s.span "core.plan" (fun () -> Optimizer.run ~scope ~spec:(Config.spec_for config prog) prog)
          with
          | plan -> Ok plan
          | exception e -> Error (Printexc.to_string e)
        in
        op_s.(k) <- Measure.seconds_since t0;
        plan)
      ops
  in
  { ops; plans; op_s }

let compiled r = List.filter_map Result.to_option (Array.to_list r.plans)

let pass_compile =
  W
    {
      name = "pass-compile";
      work_unit = "compile";
      (* 417 passes of 240 compiles: at least 100,000 timed compiles *)
      min_iters = 417;
      setup = compile_ops;
      iterate = (fun ops -> compile_iteration ops untimed);
      traced = (fun ops l -> compile_iteration ops (spans l));
      calibrate =
        (fun _ r ->
          { layers = (fun l r -> core_layers l (compiled r)); violations = core_violations (compiled r) });
      tally =
        (fun r ->
          let n = Array.length r.plans in
          { ops = n; failed = n - List.length (compiled r); work = float_of_int n; op_s = r.op_s });
      render =
        (fun r ->
          Array.to_list
            (Array.map2
               (fun ((prog : Flo_poly.Program.t), scope) plan ->
                 ( prog.name ^ "." ^ Internode.scope_to_string scope,
                   match plan with Ok plan -> plan_digest plan | Error msg -> "raised " ^ msg ))
               r.ops r.plans));
    }

let all = [ suite_sweep; fidelity_sweep; traffic_fleet; overload_storm; pass_compile ]

let find n = List.find_opt (fun w -> name w = n) all

(* Per-layer metrics of the traced run, in report order.  [`Modeled] counts and
   ratios must repeat exactly across traced iterations; [`Time]s are
   reported as medians; the one [`Run] metric, the tracing overhead, is a
   ratio of two medians.  A layer a workload does not run reads 0. *)
let layer_metrics =
  [
    ("core.plan_s", "s", `Time); ("core.step1_us", "us", `Time); ("core.step2_us", "us", `Time);
    ("core.arrays_optimized", "count", `Modeled); ("tracegen.s", "s", `Time);
    ("tracegen.elems_per_s", "elem/s", `Time); ("storage.replay_s", "s", `Time);
    ("storage.blocks_per_s", "block/s", `Time); ("storage.block_requests", "count", `Modeled);
    ("storage.client_hit_ratio", "ratio", `Modeled); ("storage.l1_hit_ratio", "ratio", `Modeled);
    ("storage.l2_hit_ratio", "ratio", `Modeled); ("storage.disk_reads", "count", `Modeled);
    ("analysis.feed_s", "s", `Time); ("analysis.events", "count", `Modeled);
    ("analysis.events_per_s", "event/s", `Time); ("fidelity.predict_s", "s", `Time);
    ("fidelity.join_s", "s", `Time); ("traffic.kernel_compile_s", "s", `Time);
    ("traffic.engine_s", "s", `Time); ("traffic.slo_eval_s", "s", `Time);
    ("traffic.report_s", "s", `Time); ("traffic.jobs", "count", `Modeled);
    ("traffic.control_s", "s", `Time); ("traffic.trace_sweep_s", "s", `Time);
    ("trace.encode_s", "s", `Time); ("trace.sampled_traces", "count", `Modeled);
    ("parallel.speedup", "x", `Time); ("bench.unattributed_frac", "ratio", `Time);
    ("bench.trace_overhead", "x", `Run);
  ]
