(* The paper's evaluation (Section 5) as data.  A section's rows, summary
   and claims read simulations from the memo; [memo] first runs every
   (topology, app, variant) its sections list in [needs], each once, on
   the Parallel pool, so rendering is pure lookups and the output does not
   depend on the jobs setting. *)

open Flo_storage
open Flo_core
open Flo_workloads

type claim = {
  section : string; text : string; paper : string; measured : string; holds : bool;
  pinned : string option;
}

type verdict = Holds | Deviates of string | Broken | Vanished of string

let verdict c =
  match (c.holds, c.pinned) with
  | true, None -> Holds
  | false, Some reason -> Deviates reason
  | false, None -> Broken
  | true, Some reason -> Vanished reason

let failed = function Broken | Vanished _ -> true | Holds | Deviates _ -> false

let verdict_to_string = function
  | Holds -> "HOLDS"
  | Deviates reason -> "DEVIATES: " ^ reason
  | Broken -> "BROKEN"
  | Vanished reason -> "BROKEN: pinned deviation no longer occurs (" ^ reason ^ ")"

let claims_table claims =
  let row cells = "| " ^ String.concat " | " cells ^ " |" in
  let claim c = row [ c.section; c.text; c.paper; c.measured; verdict_to_string (verdict c) ] in
  String.concat "\n"
    (row [ "section"; "claim"; "paper"; "measured"; "verdict" ] :: "|---|---|---|---|---|"
    :: List.map claim claims)

(* [claim TEXT PAPER MEASURED HOLDS]; [claims] below fills in the section *)
let claim ?pinned text paper measured holds = { section = ""; text; paper; measured; holds; pinned }

(* ---- runs ---- *)

type layouts = Original | Optimized

type variant =
  | Default  (* row-major layouts *)
  | Inter  (* the pass's layouts *)
  | Mapping of int  (* Inter under Experiment.random_mapping ~seed *)
  | Scope of Internode.scope  (* Inter targeting one cache layer *)
  | Unweighted  (* Inter with Step I's constraints in declaration order *)
  | Unaligned  (* Inter with element-aligned chunks *)
  | Template  (* the capacity-oblivious template compilation (Sec 4.3) *)
  | Compmap  (* the [26] baseline, searched at sample 8 *)
  | Reindex  (* the [27] baseline's static choice *)
  | Cached of Run.caching * layouts  (* exclusive cache management *)
  | Readahead of layouts  (* 2-block storage-node readahead *)
  | Observed of layouts  (* with a metrics registry and a trace analyzer attached *)
  | Conversion  (* in+out conversions between row-major and the pass's layouts *)

(* request latencies (us), L1 reuse distances, L2 cross-thread shared blocks
   and eviction conflicts *)
type observation = {
  latency : Flo_obs.Histogram.t option; reuse : Flo_obs.Histogram.t; shared : int; conflicts : int;
}

type value = Result of Run.result | Observation of observation | Conversion_us of float

let simulate base (topology, app, variant) =
  let config = Config.with_topology base topology in
  let layouts = function
    | Original -> Experiment.default_layouts app
    | Optimized -> Experiment.inter_layouts config app
  in
  let inter ?mapping ?caching ?weighted ?scope () =
    Result (Experiment.inter_run ?mapping ?caching ?weighted ?scope config app)
  in
  match variant with
  | Default -> Result (Experiment.default_run config app)
  | Inter -> inter ()
  | Mapping seed -> inter ~mapping:(Experiment.random_mapping ~seed config) ()
  | Scope scope -> inter ~scope ()
  | Unweighted -> inter ~weighted:false ()
  | Unaligned ->
    let spec = { (Config.spec_for config app.App.program) with Internode.align = 1 } in
    let plan = Optimizer.run ~spec app.App.program in
    Result (Run.run ~config ~layouts:(Optimizer.layout_of plan) app)
  | Template -> Result (Experiment.inter_template_run config app)
  | Compmap -> Result (Experiment.compmap_run ~sample:8 config app)
  | Reindex -> Result (Experiment.reindex_static_run config app)
  | Cached (caching, Original) -> Result (Experiment.default_run ~caching config app)
  | Cached (caching, Optimized) -> inter ~caching ()
  | Readahead l -> Result (Run.run ~readahead:2 ~config ~layouts:(layouts l) app)
  | Observed l ->
    let module A = Flo_analysis.Analyzer in
    let metrics = Flo_obs.Metrics.create () and a = A.create () in
    ignore (Run.run ~metrics ~sink:(A.sink a) ~config ~layouts:(layouts l) app);
    let open Flo_obs.Event in
    Observation
      { latency = Flo_obs.Metrics.find_histogram metrics "request_latency_us";
        reuse = A.reuse_histogram_at a L1; shared = A.cross_shared_at a L2;
        conflicts = A.conflicts_at a L2 }
  | Conversion ->
    let convert acc decision =
      match decision.Optimizer.layout with
      | File_layout.Row_major _ -> acc
      | to_layout ->
        let from_layout = File_layout.Row_major (File_layout.space to_layout) in
        let p = Relayout.plan ~block_elems:topology.Topology.block_elems ~from_layout ~to_layout in
        acc +. Relayout.cost_us ~read_us:1400. ~write_us:1400. p
    in
    let plan = Experiment.inter_plan config app in
    Conversion_us (2. *. List.fold_left convert 0. plan.Optimizer.decisions)

type memo = {
  config : Config.t; apps : App.t list; runs : (Topology.t * string * variant, value) Hashtbl.t;
}

let get m ?(topology = m.config.Config.topology) app variant =
  match Hashtbl.find_opt m.runs (topology, app.App.name, variant) with
  | Some v -> v
  | None -> invalid_arg ("Reproduce: a section read a run it does not list, for " ^ app.App.name)

let result m ?topology app v =
  match get m ?topology app v with Result r -> r | _ -> invalid_arg "Reproduce.result"

let observed m app l =
  match get m app (Observed l) with Observation o -> o | _ -> invalid_arg "Reproduce.observed"

let elapsed m ?topology app v = (result m ?topology app v).Run.elapsed_us

(* the run a variant's time is normalized to: the default layouts' under the
   same topology and cache management, or for readahead, the same layouts'
   without it *)
let base_of = function
  | Cached (caching, Optimized) -> Cached (caching, Original)
  | Readahead Optimized -> Inter
  | _ -> Default

let norm m ?topology app v = elapsed m ?topology app v /. elapsed m ?topology app (base_of v)

(* ---- sections ---- *)

type section = {
  name : string; title : string; header : string list;
  needs : Topology.t -> (Topology.t * variant) list;
      (* the runs each app's rows, summary and claims read, given the base topology *)
  rows : memo -> string list list; summary : memo -> string list; claims : memo -> claim list;
}

let name s = s.name

let section ~name ~title ~header ?(needs = fun _ -> []) ?(summary = fun _ -> [])
    ?(claims = fun _ -> []) rows =
  { name; title; header; needs; rows; summary; claims }

let at_base variants base = List.map (fun v -> (base, v)) variants
let per_app f m = List.map (f m) m.apps
let in_group group m = List.filter (fun app -> app.App.group = group) m.apps
let mean_norm m ?topology apps v = Report.mean (List.map (fun a -> norm m ?topology a v) apps)

(* percentage improvement of the mean normalized time *)
let gain_of m v = 100. *. (1. -. mean_norm m m.apps v)
let f1 = Printf.sprintf "%.1f"
let span fmt = function
  | [] -> "-"
  | x :: xs -> fmt (List.fold_left min x xs) ^ "–" ^ fmt (List.fold_left max x xs)
let vs fmt a b = fmt a ^ " vs " ^ fmt b
let change a b = Report.f3 a ^ " → " ^ Report.f3 b

(* one row per app: each variant's normalized time; [averages], a label per
   variant and the paper's figures, adds the "average improvements" line *)
let normalized ~name ~title ~header ?averages ~claims variants =
  let needs = at_base (List.concat_map (fun v -> [ base_of v; v ]) variants) in
  let summary m =
    match averages with
    | None -> []
    | Some (labels, paper) ->
      let one label v = Printf.sprintf "%s %.1f%%" label (gain_of m v) in
      [ Printf.sprintf "average improvements: %s (paper: %s)"
          (String.concat ", " (List.map2 one labels variants)) paper ]
  in
  section ~name ~title ~header ~needs ~summary ~claims
    (per_app (fun m app -> app.App.name :: List.map (fun v -> Report.f3 (norm m app v)) variants))

let table1 =
  section ~name:"table1" ~title:"Table 1: system parameters (scaled; paper values in parentheses)"
    ~header:[ "parameter"; "value" ]
    (fun m ->
      let t = m.config.Config.topology and n = string_of_int in
      let rpm = m.config.Config.disk_params.Disk.rpm in
      [ [ "compute nodes"; n t.Topology.compute_nodes ^ " (64)" ];
        [ "I/O nodes"; n t.Topology.io_nodes ^ " (16)" ];
        [ "storage nodes"; n t.Topology.storage_nodes ^ " (4)" ];
        [ "data striping"; "all storage nodes, round-robin (same)" ];
        [ "block = stripe"; n t.Topology.block_elems ^ " elements (128 kB)" ];
        [ "I/O cache"; n t.Topology.io_cache_blocks ^ " blocks (1 GB)" ];
        [ "storage cache"; n t.Topology.storage_cache_blocks ^ " blocks (2 GB)" ];
        [ "disk"; Printf.sprintf "%d RPM model (10,000 RPM)" rpm ] ])

let table2 =
  section ~name:"table2"
    ~title:"Table 2: default execution (miss rates per element access, modeled time)"
    ~header:[ "application"; "I/O cache miss %"; "storage miss %"; "time (ms)" ]
    ~needs:(at_base [ Default ])
    (per_app (fun m app ->
         let r = result m app Default in
         [ app.App.name; Report.pct (Run.l1_miss_per_element r);
           Report.pct (Run.l2_miss_per_element r); Report.ms r.Run.elapsed_us ]))

let table3 =
  let ratio miss m app = miss (result m app Inter) /. max 1e-12 (miss (result m app Default)) in
  let claims m =
    let l1 = ratio Run.l1_miss_per_element m in
    let worst apps = List.fold_left (fun acc a -> max acc (l1 a)) 0. apps in
    let plans = List.map (fun app -> (app, Experiment.inter_plan m.config app)) m.apps in
    let count f = List.fold_left (fun acc (_, plan) -> acc + f plan) 0 plans in
    let optimized = count Optimizer.optimized_count and total = count Optimizer.total_arrays in
    let fraction = float_of_int optimized /. float_of_int (max 1 total) in
    let installed =
      List.filter_map
        (fun (app, p) ->
          let k = Optimizer.optimized_count p in
          if app.App.group <> App.No_benefit || k = 0 then None
          else Some (Printf.sprintf "%s %d/%d" app.App.name k (Optimizer.total_arrays p)))
        plans
    in
    [ claim "optimized I/O-cache misses never rise (ratio at most 1.02)" "all below 1 (0.43–0.98)"
        ("max " ^ Report.f2 (worst m.apps)) (worst m.apps <= 1.02);
      claim "group 3's I/O-cache misses fall below half" "0.43–0.98 over all apps"
        ("max " ^ Report.f2 (worst (in_group App.High m))) (worst (in_group App.High m) < 0.5);
      claim "group 1 stays canonical" "no scope for improvement"
        (if installed = [] then "no inter-node arrays"
         else String.concat ", " installed ^ " arrays inter-node")
        (installed = [])
        ~pinned:"the pass installs inter-node layouts even where they tie with row-major on \
                 Eq. 4, and s3asim runs slower for fewer sequential disk reads";
      claim "about 72% of all arrays are optimized (0.55–0.85)" "~72%"
        (Printf.sprintf "%.0f%% (%d/%d)" (100. *. fraction) optimized total)
        (fraction >= 0.55 && fraction <= 0.85) ]
  in
  section ~name:"table3" ~title:"Table 3: cache misses after optimization (normalized to Table 2)"
    ~header:[ "application"; "I/O caches"; "storage caches" ]
    ~needs:(at_base [ Default; Inter ]) ~claims
    (per_app (fun m app ->
         [ app.App.name; Report.f2 (ratio Run.l1_miss_per_element m app);
           Report.f2 (ratio Run.l2_miss_per_element m app) ]))

(* ---- Fig 7 ---- *)

(* the paper's benefit groups: number, statement, and the normalized-time
   band each app of the group must land in *)
let bands =
  [ (App.No_benefit, 1, "no benefit", (0.95, 1.08)); (App.Moderate, 2, "8–13%", (0.86, 0.94));
    (App.High, 3, "21–26%", (0.70, 0.80)) ]

let fig7a =
  let band m (group, number, paper, (lo, hi)) =
    let norms = List.map (fun app -> (app, norm m app Inter)) (in_group group m) in
    let outside = List.filter (fun (_, n) -> n < lo || n > hi) norms in
    let out (app, n) = app.App.name ^ " " ^ Report.f3 n in
    claim (Printf.sprintf "every group-%d app's normalized time is in %.2f–%.2f" number lo hi)
      paper
      (span Report.f3 (List.map snd norms)
      ^ if outside = [] then "" else "; outside: " ^ String.concat ", " (List.map out outside))
      (outside = [])
  in
  let claims m =
    List.map (band m) bands
    @ [ claim "the mean improvement is the 23.7% headline (within 3 points)" "23.7%"
          (f1 (gain_of m Inter) ^ "%") (abs_float (gain_of m Inter -. 23.7) <= 3.)
          ~pinned:"the paper's own per-group ranges (3 apps at ~0%, 6 at 8–13%, 7 at 21–26%) \
                   average about 14%" ]
  in
  section ~name:"fig7a" ~title:"Fig 7(a): normalized execution time (inter-node layout)"
    ~header:[ "application"; "normalized"; "expected group" ]
    ~needs:(at_base [ Default; Inter ]) ~claims
    ~summary:(fun m ->
      [ Printf.sprintf "average improvement: %.1f%% (mean of the paper's per-group ranges: ~14%%)"
          (gain_of m Inter) ])
    (per_app (fun m app ->
         [ app.App.name; Report.f3 (norm m app Inter); App.group_to_string app.App.group ]))

let fig7b =
  let mappings = [ Inter; Mapping 1; Mapping 2; Mapping 3 ] in
  let cells m app = List.map (norm m app) mappings in
  let claims m =
    let spread app = List.map (fun n -> abs_float ((n /. norm m app Inter) -. 1.)) (cells m app) in
    let worst = List.fold_left max 0. (List.concat_map spread m.apps) in
    [ claim "Mappings I–IV agree within 6%" "within 6%"
        (Printf.sprintf "within %.1f%%" (100. *. worst)) (worst <= 0.06) ]
  in
  section ~name:"fig7b" ~title:"Fig 7(b): sensitivity to thread mapping (normalized times)"
    ~header:[ "application"; "Mapping I"; "Mapping II"; "Mapping III"; "Mapping IV"; "model" ]
    ~needs:(at_base (Default :: mappings)) ~claims
    (per_app (fun m app ->
         (app.App.name :: List.map Report.f3 (cells m app))
         @ [ (if app.App.master_slave then "master-slave" else "data-parallel") ]))

(* Figs 7(c)-(e): one column per topology derived from the base one, each
   cell the inter-node layout's time normalized to the default layouts' there *)
let sweep ~name ~title columns claims =
  section ~name ~title ~header:("application" :: List.map fst columns) ~claims
    ~needs:(fun base -> List.concat_map (fun (_, d) -> at_base [ Default; Inter ] (d base)) columns)
    (per_app (fun m app ->
         let cell (_, derive) = norm m ~topology:(derive m.config.Config.topology) app Inter in
         app.App.name :: List.map (fun c -> Report.f3 (cell c)) columns))

let sweep_mean m apps derive = mean_norm m ~topology:(derive m.config.Config.topology) apps Inter

(* [t] with its node counts, block size or cache capacities replaced *)
let resize (t : Topology.t) ?(nodes = (t.compute_nodes, t.io_nodes, t.storage_nodes))
    ?(block_elems = t.block_elems) ?(caches = (t.io_cache_blocks, t.storage_cache_blocks)) () =
  let (compute_nodes, io_nodes, storage_nodes), (io_cache_blocks, storage_cache_blocks) =
    (nodes, caches)
  in
  Topology.make ~compute_nodes ~io_nodes ~storage_nodes ~block_elems ~io_cache_blocks
    ~storage_cache_blocks ()

let with_caches scale (t : Topology.t) =
  let scaled blocks = max 1 (int_of_float (float_of_int blocks *. scale)) in
  resize t ~caches:(scaled t.io_cache_blocks, scaled t.storage_cache_blocks) ()

let fig7c =
  sweep ~name:"fig7c" ~title:"Fig 7(c): sensitivity to cache capacities (normalized times)"
    [ ("1/4 caches", with_caches 0.25); ("1/2 caches", with_caches 0.5);
      ("default", with_caches 1.0); ("2x caches", with_caches 2.0) ]
    (fun m ->
      let group3 scale = sweep_mean m (in_group App.High m) (with_caches scale) in
      let trend = "smaller caches, larger gains" and default = group3 1.0 in
      [ claim "the group-3 mean gain deepens at 1/4 capacity" trend (change default (group3 0.25))
          (group3 0.25 < default);
        claim "the group-3 mean gain shrinks at 2x capacity" trend (change default (group3 2.0))
          (group3 2.0 > default) ])

let nodes counts t = resize t ~nodes:counts ()

let fig7d =
  let column (c, io, st) = (Printf.sprintf "(%d,%d,%d)" c io st, nodes (c, io, st)) in
  sweep ~name:"fig7d" ~title:"Fig 7(d): sensitivity to node counts (compute, I/O, storage)"
    (List.map column [ (64, 16, 4); (64, 8, 4); (64, 8, 2); (64, 32, 8); (32, 16, 4) ])
    (fun m ->
      let mean counts = sweep_mean m m.apps (nodes counts) in
      let trend = "more sharing per cache, larger gains" and paper = mean (64, 16, 4) in
      [ claim "halving the I/O and storage nodes (64,8,2) deepens the mean gain" trend
          (change paper (mean (64, 8, 2))) (mean (64, 8, 2) < paper);
        claim "doubling them (64,32,8) shrinks the mean gain" trend
          (change paper (mean (64, 32, 8))) (mean (64, 32, 8) > paper) ])

(* cache capacity held constant in bytes *)
let blocks block_elems (t : Topology.t) =
  let same capacity = capacity * t.block_elems / block_elems in
  resize t ~block_elems ~caches:(same t.io_cache_blocks, same t.storage_cache_blocks) ()

let fig7e =
  sweep ~name:"fig7e" ~title:"Fig 7(e): sensitivity to data block size (elements per block)"
    (List.map (fun b -> (string_of_int b, blocks b)) [ 16; 32; 64; 128 ])
    (fun m ->
      let mean b = sweep_mean m m.apps (blocks b) in
      [ claim "16-element blocks give a larger mean gain than 128-element ones"
          "smaller blocks, larger gains"
          (Printf.sprintf "%s at 16, %s at 128" (Report.f3 (mean 16)) (Report.f3 (mean 128)))
          (mean 16 < mean 128)
          ~pinned:"requests are block-granular here: larger blocks make the scattered default \
                   fetch a whole stripe per element, so the trend inverts" ])

let fig7f =
  let io = Scope Internode.Io_only and storage = Scope Internode.Storage_only in
  normalized ~name:"fig7f" ~title:"Fig 7(f): layers targeted by the optimization"
    ~header:[ "application"; "I/O only"; "storage only"; "both" ] [ io; storage; Inter ]
    ~averages:([ "io-only"; "storage-only"; "both" ], "9.1 / 13.0 / 23.7")
    ~claims:(fun m ->
      let io, storage, both = (gain_of m io, gain_of m storage, gain_of m Inter) in
      [ claim "the mean gains order io-only < storage-only < both" "9.1 / 13.0 / 23.7"
          (String.concat " / " (List.map f1 [ io; storage; both ]))
          (io < storage && storage < both) ])

let fig7g =
  let rivals = [ Compmap; Reindex; Inter ] in
  let claims m =
    let compmap = gain_of m Compmap and reindex = gain_of m Reindex and inter = gain_of m Inter in
    let hard = List.filter (fun app -> List.mem app.App.name [ "contour"; "mgrid" ]) m.apps in
    let cells app = String.concat " / " (List.map (fun v -> Report.f3 (norm m app v)) rivals) in
    let wins app = norm m app Inter < min (norm m app Compmap) (norm m app Reindex) in
    [ claim "inter beats computation mapping and reindexing on the mean" "7.6 / 7.1 / 23.7"
        (String.concat " / " (List.map f1 [ compmap; reindex; inter ]))
        (inter > compmap && inter > reindex);
      claim "inter beats both on contour and mgrid"
        "reindexing cannot follow sheared or strided accesses"
        (String.concat "; " (List.map (fun app -> app.App.name ^ " " ^ cells app) hard))
        (List.for_all wins hard) ]
  in
  normalized ~name:"fig7g" ~title:"Fig 7(g): comparison against prior optimizations"
    ~header:[ "application"; "compmap [26]"; "reindex [27]"; "inter (ours)" ] rivals ~claims
    ~averages:([ "compmap"; "reindex"; "inter" ], "7.6 / 7.1 / 23.7")

let fig7h =
  let karma = Cached (Run.Karma, Optimized) and demote = Cached (Run.Demote, Optimized) in
  let claims m =
    let lru = gain_of m Inter and karma = gain_of m karma and demote = gain_of m demote in
    let beats ?pinned text paper a b = claim ?pinned text paper (vs f1 a b) (a > b) in
    [ beats "under KARMA the mean gain exceeds LRU's" "30.1 vs 23.7" karma lru;
      beats "under DEMOTE-LRU the mean gain exceeds LRU's" "28.6 vs 23.7" demote lru;
      beats "KARMA's mean gain exceeds DEMOTE-LRU's" "30.1 vs 28.6" karma demote
        ~pinned:"DEMOTE-LRU gains far more on afores, sar and qio, and KARMA's uniform hints \
                 misallocate s3asim's cache partition" ]
  in
  normalized ~name:"fig7h"
    ~title:"Fig 7(h): our optimization under hierarchical cache management schemes"
    ~header:[ "application"; "LRU (default)"; "KARMA [47]"; "DEMOTE-LRU [44]" ]
    [ Inter; karma; demote ] ~claims
    ~averages:([ "LRU"; "KARMA"; "DEMOTE" ], "23.7 / 30.1 / 28.6")

(* ---- ablations and extensions ---- *)

let ablation_weights =
  let affected m =
    List.filter (fun app -> abs_float (norm m app Inter -. norm m app Unweighted) > 1e-9) m.apps
  in
  section ~name:"ablation-weights"
    ~title:"Ablation A1: Step I constraint ordering (weighted vs declaration order)"
    ~header:[ "application (only those affected)"; "weighted (Eq. 5)"; "unweighted" ]
    ~needs:(at_base [ Default; Inter; Unweighted ])
    (fun m ->
      let row app =
        [ app.App.name; Report.f3 (norm m app Inter); Report.f3 (norm m app Unweighted) ]
      in
      if affected m = [] then [ [ "(no app affected under this configuration)"; "-"; "-" ] ]
      else List.map row (affected m))

let ablation_pattern =
  normalized ~name:"ablation-pattern" ~title:"Ablation A2: chunk alignment to the block/stripe size"
    ~header:[ "application"; "block-aligned chunks"; "element-aligned chunks" ] [ Inter; Unaligned ]
    ~claims:(fun m ->
      let aligned = mean_norm m m.apps Inter and unaligned = mean_norm m m.apps Unaligned in
      [ claim "block-aligned chunks beat element-aligned ones on the mean" "n/a (ablation)"
          (vs Report.f3 aligned unaligned) (aligned < unaligned) ])

let ablation_template =
  normalized ~name:"ablation-template"
    ~title:"Ablation A3: capacity-exact vs template-hierarchy compilation (Sec 4.3)"
    ~header:[ "application"; "exact hierarchy"; "template (capacity-oblivious)" ]
    [ Inter; Template ]
    ~claims:(fun m ->
      let exact = mean_norm m m.apps Inter and template = mean_norm m m.apps Template in
      [ claim "a capacity-oblivious template layout still gains, with some loss"
          "works with some performance loss" ("mean " ^ vs Report.f3 template exact ^ " exact")
          (exact <= template && template < 1.) ])

let amortization =
  let conversion_us m app =
    match get m app Conversion with Conversion_us us -> us | _ -> invalid_arg "Reproduce.conversion"
  in
  let break_even m app =
    Relayout.break_even ~conversion_us:(conversion_us m app) ~default_us:(elapsed m app Default)
      ~optimized_us:(elapsed m app Inter)
  in
  section ~name:"amortization"
    ~title:"Amortization: in+out canonical-layout conversions (Sec 4.3 extension)"
    ~header:[ "application"; "conversion cost (ms)"; "executions to break even" ]
    ~needs:(at_base [ Default; Inter; Conversion ])
    ~claims:(fun m ->
      let range (group, number, _, _) =
        match List.filter_map (break_even m) (in_group group m) with
        | [] -> None
        | runs -> Some (Printf.sprintf "group %d: %s runs" number (span string_of_int runs))
      in
      let sped_up = List.filter (fun app -> elapsed m app Inter < elapsed m app Default) m.apps in
      [ claim "every app the pass speeds up amortizes its conversions" "n/a (Sec 4.3 extension)"
          (String.concat "; " (List.filter_map range bands))
          (List.for_all (fun app -> break_even m app <> None) sped_up) ])
    (per_app (fun m app ->
         [ app.App.name; Printf.sprintf "%.1f" (conversion_us m app /. 1000.);
           (match break_even m app with Some n -> string_of_int n | None -> "-") ]))

let prefetch =
  normalized ~name:"prefetch"
    ~title:"Prefetching: execution time with readahead=2, normalized to readahead=0"
    ~header:[ "application"; "default layout"; "inter-node layout" ]
    [ Readahead Original; Readahead Optimized ]
    ~claims:(fun m ->
      let original = mean_norm m m.apps (Readahead Original) in
      let optimized = mean_norm m m.apps (Readahead Optimized) in
      [ claim "readahead helps the optimized layout at least as much as the default"
          "linear layouts help prefetching"
          ("mean " ^ vs Report.f3 optimized original ^ " (readahead=2 / readahead=0)")
          (optimized <= original)
          ~pinned:"the optimized layout already minimizes disk reads, leaving storage-node \
                   readahead less to fetch than under the scattered default" ])

let latency =
  let percentiles m app l =
    let at q = Option.fold ~none:0. ~some:(fun h -> Flo_obs.Histogram.percentile h q) in
    List.map (fun q -> Report.f1 (at q (observed m app l).latency)) [ 0.5; 0.99 ]
  in
  section ~name:"latency"
    ~title:"Latency: per-request modeled latency percentiles (us), default vs inter-node"
    ~header:[ "application"; "default p50"; "default p99"; "inter p50"; "inter p99" ]
    ~needs:(at_base [ Observed Original; Observed Optimized ])
    ~summary:(fun _ ->
      [ "(per-request percentiles, not totals: the pass coalesces away the cheap";
        " cache-hit requests, so the surviving mix is disk-heavier — p99 can rise";
        " even as the number of requests and total time drop sharply)" ])
    (per_app (fun m app ->
         (app.App.name :: percentiles m app Original) @ percentiles m app Optimized))

let analysis =
  (* optimized/default ratios of a count, over the apps where the default's is nonzero *)
  let ratios m count =
    List.filter_map
      (fun app ->
        let d = count (observed m app Original) and o = count (observed m app Optimized) in
        if d > 0 then Some (float_of_int o /. float_of_int d) else None)
      m.apps
  in
  let shared o = o.shared and conflicts o = o.conflicts in
  section ~name:"analysis"
    ~title:
      "Trace analysis: L2 cross-thread sharing, eviction conflicts, L1 reuse p50 (default vs \
       inter-node layout)"
    ~header:[ "application"; "shared (def)"; "shared (opt)"; "confl (def)"; "confl (opt)";
              "reuse p50 (def)"; "reuse p50 (opt)" ]
    ~needs:(at_base [ Observed Original; Observed Optimized ])
    ~summary:(fun m ->
      let line what r suffix =
        Printf.sprintf "%s, optimized/default mean ratio: %.3f over %d apps%s" what (Report.mean r)
          (List.length r) suffix
      in
      let confl = ratios m conflicts in
      line "cross-thread shared blocks" (ratios m shared) " with sharing"
      :: (if confl = [] then [] else [ line "eviction conflicts" confl "" ]))
    ~claims:(fun m ->
      let cross = ratios m shared in
      [ claim "optimized layouts shrink L2 cross-thread sharing (Step II's objective)"
          "Step II minimizes blocks co-touched in a shared cache"
          (Printf.sprintf "mean ratio %s over %d apps" (Report.f3 (Report.mean cross))
             (List.length cross))
          (cross <> [] && Report.mean cross < 1.) ])
    (per_app (fun m app ->
         let d = observed m app Original and o = observed m app Optimized in
         let reuse x =
           if Flo_obs.Histogram.is_empty x.reuse then "-"
           else Report.f1 (Flo_obs.Histogram.percentile x.reuse 0.5)
         in
         [ app.App.name; string_of_int d.shared; string_of_int o.shared; string_of_int d.conflicts;
           string_of_int o.conflicts; reuse d; reuse o ]))

(* ---- selection and running ---- *)

let sections =
  [ table1; table2; table3; fig7a; fig7b; fig7c; fig7d; fig7e; fig7f; fig7g; fig7h;
    ablation_weights; ablation_pattern; ablation_template; amortization; prefetch; latency;
    analysis ]

let select requested =
  match List.filter (fun n -> not (List.exists (fun s -> s.name = n) sections)) requested with
  | [] -> Ok (List.filter (fun s -> requested = [] || List.mem s.name requested) sections)
  | unknown ->
    Error
      (Printf.sprintf "unknown section%s %s (known: %s)"
         (if List.length unknown = 1 then "" else "s")
         (String.concat ", " (List.map (Printf.sprintf "%S") unknown))
         (String.concat ", " (List.map name sections)))

let memo ?jobs ?(config = Config.default) ?(apps = Suite.all) sections =
  let needs s app =
    List.map (fun (t, v) -> (t, app.App.name, v)) (s.needs config.Config.topology)
  in
  let keys = List.concat_map (fun s -> List.concat_map (needs s) apps) sections in
  let keys = List.sort_uniq compare keys in
  let app_named name = List.find (fun app -> app.App.name = name) apps in
  let run (t, name, v) = simulate config (t, app_named name, v) in
  let values = Parallel.map_list ?jobs run keys in
  let runs = Hashtbl.create (List.length keys) in
  List.iter2 (Hashtbl.replace runs) keys values;
  { config; apps; runs }

let render m s =
  let lines = s.summary m in
  Printf.sprintf "== %s ==\n%s\n\n%s" s.title (Report.table ~header:s.header (s.rows m))
    (if lines = [] then "" else String.concat "\n" lines ^ "\n\n")

let claims m s = List.map (fun c -> { c with section = s.name }) (s.claims m)
