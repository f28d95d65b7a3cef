open Flo_storage
open Flo_core
open Flo_workloads
open Flo_engine

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* a small config so engine tests stay fast *)
let small_config =
  Config.with_topology Config.default
    (Topology.make ~compute_nodes:8 ~io_nodes:4 ~storage_nodes:2 ~block_elems:16
       ~io_cache_blocks:32 ~storage_cache_blocks:64 ())

let small_app =
  let d = Flo_poly.Data_space.make [| 64; 64 |] in
  let space = Flo_poly.Iter_space.make [| (0, 63); (0, 63) |] in
  App.make ~name:"toy" ~description:"column sweep" ~group:App.High
    (Flo_poly.Program.make ~name:"toy"
       [ Flo_poly.Program.declare ~id:0 ~name:"a" d; Flo_poly.Program.declare ~id:1 ~name:"b" d ]
       [
         Flo_poly.Loop_nest.make ~weight:2 ~parallel_dim:0 space
           [ Flo_poly.Access.ji ~array_id:0; Flo_poly.Access.ij ~array_id:1 ];
       ])

(* ---- Config ----------------------------------------------------------- *)

let test_spec_for () =
  let spec = Config.spec_for small_config small_app.App.program in
  check "threads" 8 spec.Internode.threads;
  check "align = block" 16 spec.Internode.align;
  check "layers" 3 (Array.length spec.Internode.layers);
  (* capacities are per-array shares in elements *)
  check "S1 share" (32 * 16 / 2) spec.Internode.layers.(0).Chunk_pattern.capacity;
  check "fanout l" 2 spec.Internode.layers.(0).Chunk_pattern.fanout

let test_config_validate () =
  checkb "default validates" true (Config.validate Config.default = Ok ());
  checkb "small validates" true (Config.validate small_config = Ok ());
  (* every bad field comes back as a structured reason, never an exception *)
  let expect_error label build =
    match build () with
    | Error e ->
      checkb (label ^ " has a message") true
        (String.length (Config.invalid_config_to_string e) > 0)
    | Ok _ -> Alcotest.failf "%s accepted" label
  in
  expect_error "zero storage nodes" (fun () -> Config.build ~storage_nodes:0 ());
  expect_error "negative io nodes" (fun () -> Config.build ~io_nodes:(-4) ());
  expect_error "zero block" (fun () -> Config.build ~block_elems:0 ());
  expect_error "zero quantum" (fun () -> Config.build ~quantum:0 ());
  expect_error "zero blocks per thread" (fun () -> Config.build ~blocks_per_thread:0 ());
  expect_error "uneven nesting" (fun () -> Config.build ~compute_nodes:7 ~io_nodes:3 ());
  (match Config.build ~storage_nodes:2 ~io_nodes:4 () with
  | Ok c -> check "build applies overrides" 2 c.Config.topology.Topology.storage_nodes
  | Error e -> Alcotest.failf "valid build rejected: %s" (Config.invalid_config_to_string e))

let test_config_validate_layers () =
  let layer fanout capacity = { Chunk_pattern.fanout; capacity } in
  checkb "good ladder" true
    (Config.validate_layers [| layer 2 8; layer 2 32 |] = Ok ());
  (* S_{i+1} must be a multiple of N_{i+1} * S_i (the Step II law) *)
  (match Config.validate_layers [| layer 2 8; layer 2 20 |] with
  | Error (Config.Step2_indivisible { layer = l; capacity; unit_ }) ->
    check "failing layer" 1 l;
    check "capacity" 20 capacity;
    check "unit" 16 unit_
  | Error e ->
    Alcotest.failf "wrong reason: %s" (Config.invalid_config_to_string e)
  | Ok () -> Alcotest.fail "indivisible ladder accepted");
  (match Config.validate_layers [| layer 3 8 |] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "S1 not multiple of N1 accepted")

(* ---- Tracegen ---------------------------------------------------------- *)

let test_streams_collapse () =
  let nest = List.hd small_app.App.program.Flo_poly.Program.nests in
  let row_layouts _ = File_layout.Row_major (Flo_poly.Data_space.make [| 64; 64 |]) in
  let streams =
    Tracegen.nest_streams ~layouts:row_layouts ~block_elems:16 ~threads:8
      ~blocks_per_thread:1 nest
  in
  check "one stream per thread" 8 (Array.length streams);
  (* thread 0 iterates i in 0..7, j in 0..63:
     - array 1 (row access): 8 rows x 4 blocks = 32 block visits, collapsed
     - array 0 (col access): every (j,i) jumps blocks: 512 visits *)
  let counts = Array.map Array.length streams in
  checkb "collapse bounded below" true (counts.(0) >= 512);
  checkb "collapse effective" true (counts.(0) <= 560)

let test_streams_sample_prefix () =
  let nest = List.hd small_app.App.program.Flo_poly.Program.nests in
  let layouts _ = File_layout.Row_major (Flo_poly.Data_space.make [| 64; 64 |]) in
  let full =
    Tracegen.nest_streams ~layouts ~block_elems:16 ~threads:8 ~blocks_per_thread:1 nest
  in
  let sampled =
    Tracegen.nest_streams ~layouts ~block_elems:16 ~threads:8 ~blocks_per_thread:1
      ~sample:4 nest
  in
  checkb "prefix shorter" true (Array.length sampled.(0) < Array.length full.(0));
  (* a prefix: sampled stream is a prefix of the full stream *)
  let is_prefix =
    Array.for_all Fun.id
      (Array.mapi (fun i b -> Block.equal b full.(0).(i)) sampled.(0))
  in
  checkb "is a prefix" true is_prefix;
  let iters = Tracegen.iterations_per_thread ~threads:8 ~blocks_per_thread:1 ~sample:4 nest in
  check "sampled iterations" 128 iters.(0)

(* ---- Run ----------------------------------------------------------------- *)

let test_run_basic () =
  let r = Experiment.default_run small_config small_app in
  checkb "accesses counted" true (r.Run.element_accesses > 0);
  check "elements = trips x refs" (App.total_accesses small_app) r.Run.element_accesses;
  checkb "time positive" true (r.Run.elapsed_us > 0.);
  checkb "requests <= elements" true (r.Run.block_requests <= r.Run.element_accesses);
  checkb "disk reads <= l2 misses" true (r.Run.disk_reads <= r.Run.l2.Stats.misses);
  checkb "miss per element sane" true
    (Run.l1_miss_per_element r >= 0. && Run.l1_miss_per_element r <= 1.)

let test_run_deterministic () =
  let a = Experiment.default_run small_config small_app in
  let b = Experiment.default_run small_config small_app in
  Alcotest.(check (float 0.)) "same elapsed" a.Run.elapsed_us b.Run.elapsed_us;
  check "same misses" a.Run.l1.Stats.misses b.Run.l1.Stats.misses

let test_inter_beats_default_on_colwise () =
  let d = Experiment.default_run small_config small_app in
  let o = Experiment.inter_run small_config small_app in
  checkb "optimized faster" true (o.Run.elapsed_us < d.Run.elapsed_us);
  checkb "fewer requests" true (o.Run.block_requests < d.Run.block_requests);
  checkb "fewer L1 misses" true (o.Run.l1.Stats.misses <= d.Run.l1.Stats.misses)

let test_run_caching_variants () =
  List.iter
    (fun caching ->
      let r = Run.run ~caching ~config:small_config
                ~layouts:(Experiment.default_layouts small_app) small_app in
      checkb "runs" true (r.Run.elapsed_us > 0.))
    [ Run.Lru; Run.Demote; Run.Karma; Run.Custom (Lru.create, Lru.reference) ]

let test_run_mapping_permutation () =
  let m = Experiment.random_mapping ~seed:1 small_config in
  check "mapping length" 8 (Array.length m);
  let sorted = List.sort compare (Array.to_list m) in
  checkb "mapping is a permutation of compute nodes" true (sorted = List.init 8 Fun.id);
  let r = Experiment.default_run ~mapping:m small_config small_app in
  checkb "runs with mapping" true (r.Run.elapsed_us > 0.);
  (* deterministic: same seed, same mapping *)
  checkb "deterministic" true (Experiment.random_mapping ~seed:1 small_config = m);
  checkb "different seeds differ" true (Experiment.random_mapping ~seed:2 small_config <> m)

let test_karma_hints () =
  let streams = [| [| Block.make ~file:0 ~index:3; Block.make ~file:0 ~index:9 |] |] in
  let hints =
    Run.karma_hints_of_streams ~io_of_thread:(fun _ -> 0) ~io_nodes:1 [ (2, streams) ]
  in
  match hints.(0) with
  | [ h ] ->
    check "lo" 3 h.Karma.lo_block;
    check "hi" 9 h.Karma.hi_block;
    Alcotest.(check (float 1e-9)) "weighted accesses" 4. h.Karma.accesses
  | l -> Alcotest.failf "expected one hint, got %d" (List.length l)

let test_karma_hints_ordered () =
  (* one thread touching several files: the hint order must be the sorted
     (file, lo_block) order, not whatever Hashtbl.iter happens to yield *)
  let streams =
    [|
      [|
        Block.make ~file:5 ~index:7;
        Block.make ~file:1 ~index:2;
        Block.make ~file:3 ~index:0;
        Block.make ~file:1 ~index:4;
      |];
    |]
  in
  let hints =
    Run.karma_hints_of_streams ~io_of_thread:(fun _ -> 0) ~io_nodes:1 [ (1, streams) ]
  in
  let keys =
    List.map (fun (h : Karma.hint) -> (h.Karma.file, h.Karma.lo_block)) hints.(0)
  in
  Alcotest.(check (list (pair int int))) "hints sorted by (file, lo_block)"
    [ (1, 2); (3, 0); (5, 7) ]
    keys

(* ---- The pass on the suite (the paper's claims are Reproduce's) ----------- *)

let test_jobs =
  match Sys.getenv_opt "FLOPT_TEST_JOBS" with
  | Some s -> (match int_of_string_opt s with Some n when n >= 1 -> n | _ -> 4)
  | None -> 4

(* Table 3 and Fig 7(a) at full scale over the 16-app suite, simulated once
   for every test that reads their claims *)
let paper_claims =
  lazy
    (match Reproduce.select [ "table3"; "fig7a" ] with
    | Error msg -> invalid_arg msg
    | Ok sections ->
      let memo = Reproduce.memo ~jobs:test_jobs sections in
      List.concat_map (Reproduce.claims memo) sections)

let fail_broken claims =
  match List.filter (fun c -> Reproduce.failed (Reproduce.verdict c)) claims with
  | [] -> ()
  | broken -> Alcotest.fail ("broken claims:\n" ^ Reproduce.claims_table broken)

(* the claims of [section] whose text starts with one of [about]: one for
   each, none BROKEN; the bands themselves are Reproduce's *)
let check_claims section about () =
  let claims =
    List.filter
      (fun c ->
        c.Reproduce.section = section
        && List.exists (fun prefix -> String.starts_with ~prefix c.Reproduce.text) about)
      (Lazy.force paper_claims)
  in
  check (section ^ " claims found") (List.length about) (List.length claims);
  fail_broken claims

let group_band n = Printf.sprintf "every group-%d app" n

let test_shape_twer_conflicted () =
  let app = Suite.find "twer" in
  let plan = Experiment.inter_plan Config.default app in
  (* conflicting equal-weight references: conflicted arrays are declined *)
  checkb "most twer arrays not restructured" true (Optimizer.optimized_count plan = 0)

let suite =
  [
    ("config spec_for", `Quick, test_spec_for);
    ("config validate", `Quick, test_config_validate);
    ("config validate_layers", `Quick, test_config_validate_layers);
    ("tracegen collapse", `Quick, test_streams_collapse);
    ("tracegen prefix sampling", `Quick, test_streams_sample_prefix);
    ("run basic invariants", `Quick, test_run_basic);
    ("run deterministic", `Quick, test_run_deterministic);
    ("inter beats default on column sweeps", `Quick, test_inter_beats_default_on_colwise);
    ("run caching variants", `Quick, test_run_caching_variants);
    ("thread mapping permutations", `Quick, test_run_mapping_permutation);
    ("karma hints from streams", `Quick, test_karma_hints);
    ("karma hints deterministic order", `Quick, test_karma_hints_ordered);
    ("shape: group 1 app", `Slow, check_claims "fig7a" [ group_band 1 ]);
    ("shape: group 2 app", `Slow, check_claims "fig7a" [ group_band 2 ]);
    ("shape: group 3 app", `Slow, check_claims "fig7a" [ group_band 3 ]);
    ("shape: twer declines", `Quick, test_shape_twer_conflicted);
    ( "shape: optimized array fraction",
      `Slow,
      check_claims "table3" [ "about 72% of all arrays are optimized" ] );
  ]

(* ---- readahead & template extensions -------------------------------- *)

let test_readahead_effect () =
  (* sequential scan: readahead turns most L2 cold misses into hits *)
  let layouts = Experiment.default_layouts small_app in
  let without = Run.run ~config:small_config ~layouts small_app in
  let with_ra = Run.run ~readahead:2 ~config:small_config ~layouts small_app in
  checkb "no more disk reads with readahead" true
    (with_ra.Run.disk_reads <= without.Run.disk_reads);
  checkb "same work" true (with_ra.Run.element_accesses = without.Run.element_accesses)

let test_prefetch_accounting () =
  let layouts = Experiment.default_layouts small_app in
  let r = Run.run ~readahead:2 ~config:small_config ~layouts small_app in
  checkb "prefetches issued" true (r.Run.prefetches > 0);
  checkb "some prefetched blocks touched" true (r.Run.prefetch_hits > 0);
  checkb "hits bounded by prefetches" true (r.Run.prefetch_hits <= r.Run.prefetches);
  let without = Run.run ~config:small_config ~layouts small_app in
  check "no prefetches without readahead" 0 without.Run.prefetches;
  check "no phantom hits" 0 without.Run.prefetch_hits

let test_template_run () =
  let r = Experiment.inter_template_run small_config small_app in
  let d = Experiment.default_run small_config small_app in
  checkb "template layout still beats default on column sweeps" true
    (r.Run.elapsed_us < d.Run.elapsed_us)

(* ---- Observability ---------------------------------------------------- *)

(* the Fig. 6 worked example's shape: 4 threads, 2 I/O caches, 1 storage cache *)
let fig6_config =
  Config.with_topology Config.default
    (Topology.make ~compute_nodes:4 ~io_nodes:2 ~storage_nodes:1 ~block_elems:16
       ~io_cache_blocks:4 ~storage_cache_blocks:16 ())

let fig6_run ?sink ?metrics () =
  let mapping = Experiment.random_mapping ~seed:1 fig6_config in
  Run.run ~mapping ~readahead:2 ?sink ?metrics ~config:fig6_config
    ~layouts:(Experiment.default_layouts small_app) small_app

let test_sink_leaves_results_unchanged () =
  let plain = fig6_run () in
  let observed =
    fig6_run ~sink:(Flo_obs.Sink.callback ignore) ~metrics:(Flo_obs.Metrics.create ()) ()
  in
  Alcotest.(check (float 0.)) "identical elapsed" plain.Run.elapsed_us
    observed.Run.elapsed_us;
  check "identical l1 misses" plain.Run.l1.Stats.misses observed.Run.l1.Stats.misses;
  check "identical l2 misses" plain.Run.l2.Stats.misses observed.Run.l2.Stats.misses;
  check "identical disk reads" plain.Run.disk_reads observed.Run.disk_reads;
  check "identical requests" plain.Run.block_requests observed.Run.block_requests;
  checkb "per-thread clocks identical" true (plain.Run.thread_us = observed.Run.thread_us)

let test_run_events_match_counters () =
  let rev_events = ref [] in
  let r = fig6_run ~sink:(Flo_obs.Sink.callback (fun e -> rev_events := e :: !rev_events)) () in
  let events = List.rev !rev_events in
  let count kind layer =
    List.length
      (List.filter
         (fun (e : Flo_obs.Event.t) ->
           e.Flo_obs.Event.kind = kind && e.Flo_obs.Event.layer = layer)
         events)
  in
  let open Flo_obs.Event in
  check "access events = block requests" r.Run.block_requests (count Access L1);
  check "l1 hit events" r.Run.l1.Stats.hits (count Hit L1);
  check "l1 miss events" r.Run.l1.Stats.misses (count Miss L1);
  check "l2 hit events" r.Run.l2.Stats.hits (count Hit L2);
  check "l2 miss events" r.Run.l2.Stats.misses (count Miss L2);
  check "l1 evict events" r.Run.l1.Stats.evictions (count Evict L1);
  check "l2 evict events" r.Run.l2.Stats.evictions (count Evict L2);
  check "demote events" r.Run.l2.Stats.demotions (count Demote L2);
  check "prefetch events" r.Run.prefetches (count Prefetch L2);
  check "disk read events" r.Run.disk_reads (count Disk_read Disk)

(* golden regression: the full human-readable report for the Fig. 6 example *)
let render_fig6_report () =
  let registry = Flo_obs.Metrics.create () in
  let r = fig6_run ~metrics:registry () in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Format.asprintf "%a@." Run.pp_result r);
  let node_table title prefix stats =
    Buffer.add_string buf (Printf.sprintf "\n%s\n" title);
    Buffer.add_string buf
      (Report.table ~header:Report.stats_header
         (Array.to_list
            (Array.mapi
               (fun i s -> Report.stats_row (Printf.sprintf "%s%d" prefix i) s)
               stats)));
    Buffer.add_char buf '\n'
  in
  node_table "I/O-node caches (L1)" "io" r.Run.l1_nodes;
  node_table "storage-node caches (L2)" "st" r.Run.l2_nodes;
  (match Flo_obs.Metrics.find_histogram registry "request_latency_us" with
  | Some h -> Buffer.add_string buf (Printf.sprintf "\nrequest latency: %s\n" (Report.latency_summary h))
  | None -> Buffer.add_string buf "\nrequest latency: missing\n");
  Buffer.contents buf

(* regenerate with:
   FLOPT_GOLDEN_UPDATE=$PWD/test dune exec test/main.exe -- test engine -q *)
let test_fig6_golden_report () =
  let actual = render_fig6_report () in
  let path = "golden_fig6_report.expected" in
  match Sys.getenv_opt "FLOPT_GOLDEN_UPDATE" with
  | Some dir ->
    let oc = open_out_bin (Filename.concat dir path) in
    output_string oc actual;
    close_out oc
  | None ->
    let expected =
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    in
    Alcotest.(check string) "report matches golden file" expected actual

let suite =
  suite
  @ [
      ("storage-node readahead", `Quick, test_readahead_effect);
      ("prefetch accounting", `Quick, test_prefetch_accounting);
      ("template-hierarchy run", `Quick, test_template_run);
      ("sink does not perturb results", `Quick, test_sink_leaves_results_unchanged);
      ("trace events match counters", `Quick, test_run_events_match_counters);
      ("fig. 6 golden report", `Quick, test_fig6_golden_report);
    ]

(* ---- the paper's claims (Reproduce) ---------------------------------------- *)

let synthetic ?pinned holds =
  { Reproduce.section = "fig7x"; text = "a claim"; paper = "1.0"; measured = "2.0"; holds;
    pinned }

let test_verdict_rules () =
  let verdict ?pinned holds = Reproduce.verdict (synthetic ?pinned holds) in
  checkb "holds" true (verdict true = Reproduce.Holds);
  checkb "pinned deviation" true (verdict ~pinned:"why" false = Reproduce.Deviates "why");
  checkb "unpinned failure" true (verdict false = Reproduce.Broken);
  checkb "vanished deviation" true (verdict ~pinned:"why" true = Reproduce.Vanished "why");
  Alcotest.(check (list bool)) "only BROKEN and a vanished deviation fail"
    [ false; false; true; true ]
    (List.map Reproduce.failed
       [ verdict true; verdict ~pinned:"why" false; verdict false; verdict ~pinned:"why" true ]);
  Alcotest.(check string) "vanished reads as BROKEN"
    "BROKEN: pinned deviation no longer occurs (why)"
    (Reproduce.verdict_to_string (verdict ~pinned:"why" true));
  let claims = [ synthetic true; synthetic ~pinned:"why" false; synthetic false ] in
  Alcotest.(check string) "markdown table"
    "| section | claim | paper | measured | verdict |\n\
     |---|---|---|---|---|\n\
     | fig7x | a claim | 1.0 | 2.0 | HOLDS |\n\
     | fig7x | a claim | 1.0 | 2.0 | DEVIATES: why |\n\
     | fig7x | a claim | 1.0 | 2.0 | BROKEN |"
    (Reproduce.claims_table claims)

let test_select_sections () =
  let names = function
    | Ok sections -> List.map Reproduce.name sections
    | Error msg -> Alcotest.failf "rejected: %s" msg
  in
  check "none named: all 18" 18 (List.length (names (Reproduce.select [])));
  Alcotest.(check (list string)) "paper order, each once" [ "table3"; "fig7a" ]
    (names (Reproduce.select [ "fig7a"; "table3"; "fig7a" ]));
  let rejects requested prefix =
    match Reproduce.select requested with
    | Ok _ -> Alcotest.failf "accepted %s" (String.concat " " requested)
    | Error msg ->
      checkb msg true (String.starts_with ~prefix msg)
  in
  rejects [ "fig7a"; "fig7z" ] "unknown section \"fig7z\" (known: table1, table2, table3, fig7a,";
  rejects [ "compile-bench"; "Fig7a" ] "unknown sections \"compile-bench\", \"Fig7a\" (known:"

(* every section on a small system: each reads only runs it lists (a miss
   raises), and the output does not depend on the jobs setting *)
let test_reproduce_small () =
  let render jobs =
    let memo =
      Reproduce.memo ~jobs ~config:small_config ~apps:[ small_app ] Reproduce.sections
    in
    String.concat "" (List.map (Reproduce.render memo) Reproduce.sections)
    ^ Reproduce.claims_table (List.concat_map (Reproduce.claims memo) Reproduce.sections)
  in
  let sequential = render 1 in
  check "18 sections" 18
    (List.length
       (List.filter (String.starts_with ~prefix:"== ") (String.split_on_char '\n' sequential)));
  Alcotest.(check string) "identical at every jobs setting" sequential (render test_jobs)

(* EXPERIMENTS.md's claims block, the printed table copied between markers *)
let experiments_claims () =
  let path = if Sys.file_exists "../EXPERIMENTS.md" then "../EXPERIMENTS.md" else "EXPERIMENTS.md" in
  let lines = String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all) in
  let rec block inside = function
    | [] -> []
    | "<!-- claims:end -->" :: _ -> []
    | "<!-- claims:begin -->" :: rest -> block true rest
    | line :: rest -> if inside then line :: block inside rest else block inside rest
  in
  block false lines

(* the headline reproduction: every Table 3 and Fig 7(a) claim from the
   shared memo; any BROKEN claim fails, and so does a row EXPERIMENTS.md no
   longer shows verbatim *)
let test_paper_claims () =
  let claims = Lazy.force paper_claims in
  check "claims checked" 8 (List.length claims);
  fail_broken claims;
  let documented = experiments_claims () in
  List.iter
    (fun row -> checkb ("EXPERIMENTS.md shows " ^ row) true (List.mem row documented))
    (String.split_on_char '\n' (Reproduce.claims_table claims))

let suite =
  suite
  @ [
      ( "shape: all 16 apps in their groups",
        `Slow,
        check_claims "fig7a" (List.map group_band [ 1; 2; 3 ]) );
      ( "shape: Table 3 miss reductions",
        `Slow,
        check_claims "table3"
          [ "optimized I/O-cache misses never rise"; "group 3's I/O-cache misses fall below half" ]
      );
      ("reproduce: verdict rules", `Quick, test_verdict_rules);
      ("reproduce: section names", `Quick, test_select_sections);
      ("reproduce: every section, small system", `Quick, test_reproduce_small);
      ("reproduce: Table 3 and Fig 7(a) claims (16 apps)", `Slow, test_paper_claims);
    ]

(* ---- trace flush ordering ------------------------------------------------ *)

(* the contract `flopt run --trace` relies on: the instant with_jsonl
   returns, the file on disk is the complete trace — flushed and closed, no
   buffered tail — so a pipeline can re-read it immediately *)
let test_trace_readable_immediately () =
  let live = Flo_analysis.Analyzer.create () in
  let path = Filename.temp_file "flopt_trace_flush" ".jsonl" in
  ignore
    (Flo_obs.Sink.with_jsonl path (fun sink ->
         fig6_run
           ~sink:
             (Flo_obs.Sink.callback (fun e ->
                  sink.Flo_obs.Sink.emit e;
                  Flo_analysis.Analyzer.feed live e))
           ()));
  let off =
    match Flo_analysis.Analyzer.load_file path with
    | Ok a -> a
    | Error e ->
      Alcotest.failf "immediate re-read failed: %s"
        (Flo_analysis.Analyzer.load_error_to_string e)
  in
  Sys.remove path;
  check "no events lost at close"
    (Flo_analysis.Analyzer.event_count live)
    (Flo_analysis.Analyzer.event_count off)

let suite = suite @ [ ("trace file complete on return", `Quick, test_trace_readable_immediately) ]
