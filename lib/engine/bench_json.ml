open Flo_workloads
open Flo_storage

(* One app's manifest contribution is a pure function of (config, sample,
   app): the task builds its own analyzer, fidelity join and layouts, so the
   grid parallelizes over apps with no shared state and the manifest is
   identical under every jobs setting. *)

let app_metrics ~config ~sample app =
  let name = app.App.name in
  let metrics = ref [] in
  let add metric value unit_ =
    metrics :=
      { Bench_schema.app = name; name = metric; value; unit_; gated = true } :: !metrics
  in
  let analyzed_run layouts =
    let a = Flo_analysis.Analyzer.create () in
    let r =
      Run.run ~sample ~sink:(Flo_analysis.Analyzer.sink a) ~config ~layouts app
    in
    (r, a)
  in
  List.iter
    (fun (mode, layouts) ->
      let r, a = analyzed_run layouts in
      let g n = add (n ^ "." ^ mode) in
      g "elapsed_us" r.Run.elapsed_us "us";
      g "l1_miss_per_element" (Run.l1_miss_per_element r) "miss/elem";
      g "l2_miss_per_element" (Run.l2_miss_per_element r) "miss/elem";
      g "l2_cross_shared"
        (float_of_int (Flo_analysis.Analyzer.cross_shared_at a Flo_obs.Event.L2))
        "pairs";
      let h = Flo_analysis.Analyzer.reuse_histogram_at a Flo_obs.Event.L1 in
      if not (Flo_obs.Histogram.is_empty h) then
        g "reuse_p50_l1" (Flo_obs.Histogram.percentile h 0.5) "blocks")
    [
      ("default", Experiment.default_layouts app);
      ("inter", Experiment.inter_layouts config app);
    ];
  let fd, _ =
    Experiment.fidelity ~sample ~layouts:(Experiment.inter_layouts config app) config app
  in
  add "fidelity.max_rel_drift.inter" (Flo_fidelity.Fidelity.max_rel_drift fd) "ratio";
  add "fidelity.flagged_rows.inter"
    (float_of_int (List.length (Flo_fidelity.Fidelity.flagged fd)))
    "rows";
  List.rev !metrics

let collect ?jobs ?(sample = 1) ?(progress = fun _ -> ()) ~config apps =
  let per_app =
    Parallel.map_list ?jobs
      (fun app ->
        progress app.App.name;
        app_metrics ~config ~sample app)
      apps
  in
  Bench_schema.make
    ~apps:(List.map (fun a -> a.App.name) apps)
    ~sample
    ~block_elems:config.Config.topology.Topology.block_elems
    ~threads:(Config.threads config)
    (List.concat per_app)
