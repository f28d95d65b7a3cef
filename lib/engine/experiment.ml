open Flo_core
open Flo_workloads
open Flo_storage

let default_layouts app =
  let program = app.App.program in
  fun id ->
    let decl = Flo_poly.Program.array_decl program id in
    File_layout.Row_major decl.Flo_poly.Program.space

let inter_plan ?weighted ?scope ?metrics config app =
  let spec = Config.spec_for config app.App.program in
  Optimizer.run ?weighted ?scope ?metrics ~spec app.App.program

let inter_layouts ?weighted ?scope config app =
  let plan = inter_plan ?weighted ?scope config app in
  fun id -> Optimizer.layout_of plan id

let default_run ?mapping ?caching config app =
  Run.run ?mapping ?caching ~config ~layouts:(default_layouts app) app

let inter_run ?mapping ?caching ?weighted ?scope config app =
  Run.run ?mapping ?caching ~config ~layouts:(inter_layouts ?weighted ?scope config app) app

let normalized ~base r = r.Run.elapsed_us /. base.Run.elapsed_us

(* The [27] baseline is single-node centric (the paper's first criticism of
   prior layout work): its profile runs see a sequential, single-cache
   system, not the parallel sharing structure. *)
let sequential_config config =
  let t = config.Config.topology in
  Config.with_topology config
    (Topology.make ~compute_nodes:1 ~io_nodes:1 ~storage_nodes:1
       ~block_elems:t.Topology.block_elems ~io_cache_blocks:t.Topology.io_cache_blocks
       ~storage_cache_blocks:t.Topology.storage_cache_blocks ())

let reindex_best ?(sample = 4) config app =
  let seq = sequential_config config in
  let evaluate assignment =
    (Run.run ~sample ~config:seq ~layouts:assignment app).Run.elapsed_us
  in
  Reindex.optimize app.App.program ~evaluate

let inter_template_run config app =
  let spec0 = Config.spec_for config app.App.program in
  let topo = config.Config.topology in
  let fanouts =
    Array.map (fun (l : Flo_core.Chunk_pattern.layer) -> l.Flo_core.Chunk_pattern.fanout)
      spec0.Internode.layers
  in
  let spec =
    Internode.template_spec ~fanouts ~chunk:topo.Topology.block_elems
      ~align:topo.Topology.block_elems ~num_blocks:spec0.Internode.num_blocks
  in
  let plan = Optimizer.run ~spec app.App.program in
  Run.run ~config ~layouts:(fun id -> Optimizer.layout_of plan id) app

let reindex_static_run config app =
  let chosen = Reindex.dominant_order app.App.program in
  Run.run ~config ~layouts:(fun id -> List.assoc id chosen) app

let compmap_best ?(sample = 4) config app =
  let layouts = default_layouts app in
  let nests = List.length app.App.program.Flo_poly.Program.nests in
  let cluster = Topology.threads_per_io config.Config.topology in
  let threads = Config.threads config in
  let evaluate assigns =
    (Run.run ~sample ~assigns ~config ~layouts app).Run.elapsed_us
  in
  Compmap.optimize ~nests ~cluster ~threads ~evaluate

let compmap_run ?sample config app =
  let outcome = compmap_best ?sample config app in
  let assigns i = List.assoc i outcome.Compmap.choices in
  Run.run ~assigns ~config ~layouts:(default_layouts app) app

(* Deterministic Fisher-Yates driven by a 64-bit LCG so mappings are stable
   across runs (Random would tie results to OCaml's generator version). *)
let random_mapping ~seed config =
  let compute = config.Config.topology.Topology.compute_nodes in
  let threads = Config.threads config in
  let state = ref (0x1E3779B97F4A7C15 * (seed + 1)) in
  let next bound =
    state := (!state * 3202034522624059733) + 1442695040888963407;
    let x = (!state lsr 17) land max_int in
    x mod bound
  in
  let perm = Array.init compute Fun.id in
  for i = compute - 1 downto 1 do
    let j = next (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  Array.init threads (fun t -> perm.(t mod compute))

let map_apps ?jobs f apps = Parallel.map_list ?jobs f apps

type chaos_point = {
  scale : float;
  plan : Flo_faults.Fault_plan.t;
  default_r : Run.result;
  inter_r : Run.result;
  default_counts : Flo_faults.Injector.counts;
  inter_counts : Flo_faults.Injector.counts;
}

(* One point per fault-rate scale, each simulated under both the default
   (row-major) and the compiler-optimized layouts with its own freshly
   compiled injector — injector state is per run, so points are independent
   tasks and the sweep parallelizes over scales with identical results at
   every jobs setting. *)
let chaos ?(scales = [ 0.; 0.5; 1.; 2. ]) ?caching ?scope ?jobs ~plan config app =
  (* every scale is checked before the pass or any run starts *)
  let scaled = List.map (fun s -> (s, Flo_faults.Fault_plan.scale plan s)) scales in
  let layouts_default = default_layouts app in
  let layouts_inter = inter_layouts ?scope config app in
  let storage_nodes = config.Config.topology.Topology.storage_nodes in
  let point (scale, p) =
    let run_under layouts =
      let inj = Flo_faults.Injector.create ~storage_nodes p in
      let r = Run.run ?caching ~faults:inj ~config ~layouts app in
      (r, Flo_faults.Injector.counts inj)
    in
    let default_r, default_counts = run_under layouts_default in
    let inter_r, inter_counts = run_under layouts_inter in
    { scale; plan = p; default_r; inter_r; default_counts; inter_counts }
  in
  Parallel.map_list ?jobs point scaled

(* The fidelity loop: run with a live analyzer attached, recompute the
   compiler-side predictions under the same parallelization parameters (or
   deliberately different ones via [predict_block_elems]), and join. *)
let observe_and_join ?tolerance ?mapping ?(sample = 1) ?predict_block_elems ~layouts
    config app =
  let analyzer = Flo_analysis.Analyzer.create () in
  let result =
    Run.run ?mapping ~sample ~sink:(Flo_analysis.Analyzer.sink analyzer) ~config
      ~layouts app
  in
  let block_elems =
    match predict_block_elems with
    | Some b -> b
    | None -> config.Config.topology.Topology.block_elems
  in
  let predict =
    Flo_fidelity.Predict.compute
      ~blocks_per_thread:config.Config.blocks_per_thread ~sample ~block_elems
      ~threads:(Config.threads config) ~name:app.App.name ~layouts
      app.App.program
  in
  (analyzer, Flo_fidelity.Fidelity.join ?tolerance ~predict ~observed:analyzer (), result)

let fidelity ?tolerance ?mapping ?sample ?predict_block_elems ~layouts config app =
  let _, join, result =
    observe_and_join ?tolerance ?mapping ?sample ?predict_block_elems ~layouts config app
  in
  (join, result)

(* One observation window for the drift watch: the fidelity loop's run,
   distilled into the plain-value signal Flo_fidelity.Drift folds. *)
let drift_signal ?mapping ?sample ~layouts config app =
  let analyzer, join, result = observe_and_join ?mapping ?sample ~layouts config app in
  let fidelity_rel =
    let r = Flo_fidelity.Fidelity.max_rel_drift join in
    (* a pair the model did not predict at all reads as total drift *)
    if Float.is_finite r then r else 1.
  in
  {
    Flo_fidelity.Drift.miss_l1 = Run.l1_miss_per_element result;
    miss_l2 = Run.l2_miss_per_element result;
    cross_shared = Flo_analysis.Analyzer.cross_shared_at analyzer Flo_obs.Event.L2;
    sharing = Flo_fidelity.Drift.sharing_of analyzer;
    fidelity_rel;
  }
