(* The fault-injection subsystem: PRNG determinism, plan grammar round-trip,
   retry backoff bounds, injector semantics (offline caches, failover
   remaps, read-error retry loops, timeouts, degraded service), the hard
   byte-identity invariant (zero-fault plan = fault-free path), and the
   jobs-independence of chaos sweeps. *)

open Flo_storage
open Flo_core
open Flo_workloads
open Flo_engine
open Flo_faults

let checkb = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_jobs =
  match Sys.getenv_opt "FLOPT_TEST_JOBS" with
  | Some s -> (match int_of_string_opt s with Some n when n >= 1 -> n | _ -> 4)
  | None -> 4

(* ---- Prng -------------------------------------------------------------- *)

let test_prng_deterministic () =
  let draw seed n =
    let g = Prng.create ~seed in
    List.init n (fun _ -> Prng.next_int64 g)
  in
  checkb "same seed same stream" true (draw 42 64 = draw 42 64);
  checkb "different seeds diverge" true (draw 42 64 <> draw 43 64);
  let g = Prng.create ~seed:7 and h = Prng.for_stream ~seed:7 ~stream:0 in
  checkb "stream 0 is a distinct substream" true
    (List.init 16 (fun _ -> Prng.next_int64 g)
    <> List.init 16 (fun _ -> Prng.next_int64 h));
  let s0 = Prng.for_stream ~seed:7 ~stream:1 and s1 = Prng.for_stream ~seed:7 ~stream:2 in
  checkb "substreams diverge" true
    (List.init 16 (fun _ -> Prng.next_int64 s0)
    <> List.init 16 (fun _ -> Prng.next_int64 s1))

let test_prng_ranges () =
  let g = Prng.create ~seed:1 in
  for _ = 1 to 1000 do
    let f = Prng.float g in
    checkb "float in [0,1)" true (f >= 0. && f < 1.)
  done;
  let g = Prng.create ~seed:2 in
  for _ = 1 to 1000 do
    let i = Prng.int g ~bound:7 in
    checkb "int in [0,bound)" true (i >= 0 && i < 7)
  done

(* ---- Fault_plan grammar ------------------------------------------------- *)

let test_plan_parse_ok () =
  let p =
    match
      Fault_plan.of_string
        "read-error:rate=0.1,node=2;latency:rate=0.5,mult=4;degrade:mult=2;\
         cache-off:node=1;failover:node=0,to=3;retry:max=5,base=100,timeout=9000"
    with
    | Ok p -> p
    | Error e -> Alcotest.failf "parse failed: %s" e
  in
  check_int "five fault clauses" 5 (List.length p.Fault_plan.specs);
  check_int "retry max folded in" 5 p.Fault_plan.retry.Retry.max_retries;
  checkb "retry mult keeps default" true
    (p.Fault_plan.retry.Retry.multiplier = Retry.default.Retry.multiplier);
  checkb "not empty" false (Fault_plan.is_empty p);
  (* canonical rendering re-parses to the same plan *)
  (match Fault_plan.of_string (Fault_plan.to_string p) with
  | Ok p' -> checkb "roundtrip" true (p' = p)
  | Error e -> Alcotest.failf "canonical form rejected: %s" e)

let test_plan_parse_errors () =
  List.iter
    (fun s ->
      match Fault_plan.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" s)
    [
      "bogus:rate=1";                  (* unknown clause *)
      "read-error:rate=2";             (* rate out of range *)
      "read-error:rate=-0.1";
      "read-error:rate=0.5,node=-1";   (* negative node *)
      "latency:rate=0.5";              (* missing mult *)
      "latency:rate=0.5,mult=0.5";     (* multiplier < 1 *)
      "degrade:mult=abc";              (* not a number *)
      "cache-off:";                    (* missing node *)
      "read-error:rate=0.5,frobnicate=1"; (* unknown key *)
      "retry:max=-1";
      "retry:jitter=1.5";
    ]

let test_plan_scale () =
  let p =
    Result.get_ok
      (Fault_plan.of_string "read-error:rate=0.6;degrade:mult=3;cache-off:node=0")
  in
  let zero = Fault_plan.scale p 0. in
  checkb "scale 0 drops every clause" true (zero.Fault_plan.specs = []);
  checkb "scale 0 is the empty plan" true (Fault_plan.is_empty { zero with seed = 0 });
  let double = Fault_plan.scale p 2. in
  List.iter
    (fun spec ->
      match spec with
      | Fault_plan.Read_error { rate; _ } -> checkb "rate clamped to 1" true (rate = 1.)
      | Fault_plan.Degraded { multiplier; _ } ->
        checkb "degrade interpolates 1+(m-1)s" true (multiplier = 5.)
      | Fault_plan.Cache_offline _ -> ()
      | _ -> Alcotest.fail "unexpected clause")
    double.Fault_plan.specs;
  check_int "structural clauses kept at s>0" 3 (List.length double.Fault_plan.specs);
  (* NaN would pass an [s <= 0] test and make every rate NaN, infinity
     turns a zero rate into NaN, and a negative scale would run fault-free:
     each is rejected by name *)
  List.iter
    (fun (s, shown) ->
      Alcotest.check_raises shown
        (Invalid_argument
           (Printf.sprintf
              "Fault_plan.scale: scale must be finite and non-negative (got %s)" shown))
        (fun () -> ignore (Fault_plan.scale p s)))
    [ (nan, "nan"); (infinity, "inf"); (-1., "-1") ]

let plan_arb =
  let open QCheck in
  (* floats as eighths so the %.12g wire format round-trips exactly *)
  let gen =
    Gen.(
      let rate8 = map (fun k -> float_of_int k /. 8.) (int_range 0 8) in
      let mult8 = map (fun k -> float_of_int k /. 8.) (int_range 8 128) in
      let clause =
        oneof
          [
            (let* rate = rate8 in
             let* node = opt (int_range 0 3) in
             return (Fault_plan.Read_error { node; rate }));
            (let* rate = rate8 in
             let* m = mult8 in
             let* node = opt (int_range 0 3) in
             return (Fault_plan.Latency_spike { node; rate; multiplier = m }));
            (let* m = mult8 in
             let* node = opt (int_range 0 3) in
             return (Fault_plan.Degraded { node; multiplier = m }));
            (let* node = int_range 0 3 in
             return (Fault_plan.Cache_offline { node }));
            (let* node = int_range 0 3 in
             let* target = opt (int_range 0 3) in
             return (Fault_plan.Stripe_failover { node; target }));
          ]
      in
      let* specs = list_size (int_range 0 6) clause in
      let* seed = int_range 0 1000 in
      let* max_retries = int_range 0 6 in
      let* jitter = rate8 in
      return
        {
          Fault_plan.seed;
          retry = { Retry.default with Retry.max_retries; jitter };
          specs;
        })
  in
  QCheck.make ~print:Fault_plan.to_string gen

let prop_plan_roundtrip =
  QCheck.Test.make ~count:200 ~name:"fault plan to_string/of_string round-trips"
    plan_arb
    (fun p ->
      match Fault_plan.of_string (Fault_plan.to_string p) with
      | Ok p' -> Fault_plan.with_seed p' p.Fault_plan.seed = p
      | Error _ -> false)

(* ---- Retry backoff ------------------------------------------------------ *)

let test_backoff_bounds () =
  let p = { Retry.max_retries = 4; base_backoff_us = 100.; multiplier = 2.;
            jitter = 0.5; timeout_us = 1e6 } in
  let inj =
    Injector.create ~storage_nodes:2
      { Fault_plan.empty with Fault_plan.retry = p }
  in
  for attempt = 0 to 3 do
    let nominal = 100. *. (2. ** float_of_int attempt) in
    for _ = 1 to 50 do
      let b = Injector.backoff_us inj ~node:0 ~attempt in
      checkb
        (Printf.sprintf "backoff attempt %d in [nominal/2, nominal]" attempt)
        true
        (b >= (nominal /. 2.) -. 1e-9 && b <= nominal +. 1e-9)
    done
  done;
  (* jitter 0: exact exponential ladder *)
  let exact =
    Injector.create ~storage_nodes:1
      { Fault_plan.empty with Fault_plan.retry = { p with Retry.jitter = 0. } }
  in
  checkb "no jitter is exact" true
    (Injector.backoff_us exact ~node:0 ~attempt:2 = 400.)

let test_retry_validate () =
  List.iter
    (fun p ->
      match Retry.validate p with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "accepted %s" (Retry.to_string p))
    [
      { Retry.default with Retry.max_retries = -1 };
      { Retry.default with Retry.base_backoff_us = -5. };
      { Retry.default with Retry.multiplier = 0.5 };
      { Retry.default with Retry.jitter = 1.5 };
      { Retry.default with Retry.timeout_us = 0. };
    ];
  checkb "default valid" true (Retry.validate Retry.default = Ok ())

(* ---- Injector semantics over real runs ---------------------------------- *)

let small_config =
  Config.with_topology Config.default
    (Topology.make ~compute_nodes:8 ~io_nodes:4 ~storage_nodes:2 ~block_elems:16
       ~io_cache_blocks:32 ~storage_cache_blocks:64 ())

let toy_app =
  let d = Flo_poly.Data_space.make [| 64; 64 |] in
  let space = Flo_poly.Iter_space.make [| (0, 63); (0, 63) |] in
  App.make ~name:"toy" ~description:"column sweep" ~group:App.High
    (Flo_poly.Program.make ~name:"toy"
       [ Flo_poly.Program.declare ~id:0 ~name:"a" d;
         Flo_poly.Program.declare ~id:1 ~name:"b" d ]
       [
         Flo_poly.Loop_nest.make ~weight:2 ~parallel_dim:0 space
           [ Flo_poly.Access.ji ~array_id:0; Flo_poly.Access.ij ~array_id:1 ];
       ])

(* two identical row-sweep nests: each array is 256 blocks, 128 per storage
   node — the second pass misses the 32-block L1 but hits the 512-block L2,
   so storage caching is actually load-bearing here *)
let reuse_app =
  let d = Flo_poly.Data_space.make [| 64; 64 |] in
  let space = Flo_poly.Iter_space.make [| (0, 63); (0, 63) |] in
  let nest =
    Flo_poly.Loop_nest.make ~weight:1 ~parallel_dim:0 space
      [ Flo_poly.Access.ij ~array_id:0; Flo_poly.Access.ij ~array_id:1 ]
  in
  App.make ~name:"toy-reuse" ~description:"two row sweeps" ~group:App.High
    (Flo_poly.Program.make ~name:"toy-reuse"
       [ Flo_poly.Program.declare ~id:0 ~name:"a" d;
         Flo_poly.Program.declare ~id:1 ~name:"b" d ]
       [ nest; nest ])

(* tiny L1, roomy L2: the reuse app's second sweep misses every I/O-node
   cache but fits entirely in the storage caches *)
let l2_heavy_config =
  Config.with_topology Config.default
    (Topology.make ~compute_nodes:8 ~io_nodes:4 ~storage_nodes:2 ~block_elems:16
       ~io_cache_blocks:8 ~storage_cache_blocks:512 ())

let run_with ?(app = toy_app) ?(config = small_config) plan =
  let inj =
    Injector.create ~storage_nodes:config.Config.topology.Topology.storage_nodes
      plan
  in
  let r =
    Run.run ~faults:inj ~config ~layouts:(Experiment.default_layouts app) app
  in
  (r, Injector.counts inj)

let plain_run ?(app = toy_app) ?(config = small_config) () =
  Run.run ~config ~layouts:(Experiment.default_layouts app) app

let plan_of s = Fault_plan.with_seed (Result.get_ok (Fault_plan.of_string s)) 42

let test_cache_off_all_miss () =
  let base = plain_run ~app:reuse_app ~config:l2_heavy_config () in
  checkb "baseline leans on L2" true (base.Run.l2.Stats.hits > 0);
  let r, c =
    run_with ~app:reuse_app ~config:l2_heavy_config
      (plan_of "cache-off:node=0;cache-off:node=1")
  in
  check_int "no L2 hits with every cache offline" 0 r.Run.l2.Stats.hits;
  checkb "offline misses counted" true (c.Injector.offline_misses > 0);
  checkb "every former hit goes to disk" true (r.Run.disk_reads > base.Run.disk_reads);
  checkb "offline caches cost time" true (r.Run.elapsed_us > base.Run.elapsed_us)

let test_failover_shifts_traffic () =
  let r, c = run_with (plan_of "failover:node=0") in
  check_int "remapped node serves nothing" 0 r.Run.l2_nodes.(0).Stats.accesses;
  checkb "remaps counted" true (c.Injector.remaps > 0);
  checkb "survivor carries the load" true (r.Run.l2_nodes.(1).Stats.accesses > 0)

let test_read_errors_retry () =
  let r, c = run_with (plan_of "read-error:rate=0.2") in
  checkb "faults drawn" true (c.Injector.faults > 0);
  checkb "retries follow faults" true (c.Injector.retries > 0);
  let base = plain_run () in
  checkb "retries cost modeled time" true (r.Run.elapsed_us > base.Run.elapsed_us);
  (* the retry path only re-reads: cache behavior is unchanged *)
  checkb "miss counts unchanged by retries" true
    (r.Run.l1.Stats.misses = base.Run.l1.Stats.misses
    && r.Run.l2.Stats.misses = base.Run.l2.Stats.misses)

let test_timeout_failover_path () =
  (* a timeout budget smaller than one backoff forces the failover read *)
  let _, c = run_with (plan_of "read-error:rate=0.5;retry:max=9,base=500,timeout=1") in
  checkb "timeouts recorded" true (c.Injector.timeouts > 0);
  checkb "every timeout fails over" true (c.Injector.failovers >= c.Injector.timeouts)

let test_retries_exhausted_failover () =
  let _, c = run_with (plan_of "read-error:rate=0.9;retry:max=0") in
  checkb "max=0 goes straight to failover" true
    (c.Injector.failovers > 0 && c.Injector.retries = 0)

let test_degraded_service () =
  let r, _ = run_with (plan_of "degrade:mult=8") in
  let base = plain_run () in
  checkb "degraded node is slower" true (r.Run.elapsed_us > base.Run.elapsed_us);
  checkb "cache behavior unchanged" true
    (r.Run.l2.Stats.misses = base.Run.l2.Stats.misses)

let test_injector_rejects_bad_nodes () =
  List.iter
    (fun s ->
      let plan = plan_of s in
      match Injector.create ~storage_nodes:2 plan with
      | _ -> Alcotest.failf "accepted %S for 2 nodes" s
      | exception Invalid_argument _ -> ())
    [ "cache-off:node=2"; "failover:node=5"; "read-error:rate=0.5,node=9" ]

(* ---- the hard invariant: empty plan = fault-free path -------------------- *)

let results_identical (a : Run.result) (b : Run.result) = a = b

let test_zero_fault_identity_toy () =
  let base = plain_run () in
  let empty_r, c = run_with Fault_plan.empty in
  checkb "empty plan byte-identical" true (results_identical base empty_r);
  checkb "no counter moved" true (c = Injector.counts (Injector.create ~storage_nodes:2 Fault_plan.empty));
  (* scale 0 of a rich plan is the same empty plan *)
  let scaled_r, _ =
    run_with (Fault_plan.scale (plan_of "read-error:rate=0.9;degrade:mult=16;cache-off:node=0") 0.)
  in
  checkb "scale-0 plan byte-identical" true (results_identical base scaled_r)

let test_zero_fault_identity_suite () =
  (* the full 16-app suite, default and optimized layouts: running through
     an empty injector must be indistinguishable field-for-field *)
  let config = Config.default in
  let sn = config.Config.topology.Topology.storage_nodes in
  List.iter
    (fun app ->
      List.iter
        (fun (mode, layouts) ->
          let base = Run.run ~config ~layouts app in
          let inj = Injector.create ~storage_nodes:sn Fault_plan.empty in
          let faulty = Run.run ~faults:inj ~config ~layouts app in
          checkb
            (Printf.sprintf "%s (%s layouts)" app.App.name mode)
            true
            (results_identical base faulty))
        [
          ("default", Experiment.default_layouts app);
          ("inter", Experiment.inter_layouts config app);
        ])
    Suite.all

(* ---- jobs-independence of chaos sweeps (qcheck) -------------------------- *)

let chaos_arb =
  let open QCheck in
  let gen =
    Gen.(
      let* seed = int_range 0 99 in
      let* rate8 = int_range 0 4 in
      let* col = bool in
      return (seed, float_of_int rate8 /. 8., col))
  in
  QCheck.make
    ~print:(fun (s, r, col) -> Printf.sprintf "seed=%d rate=%.3f col=%b" s r col)
    gen

let prop_chaos_jobs_equivalence =
  QCheck.Test.make ~count:10
    ~name:"chaos sweep: --jobs 1 and --jobs N give identical points" chaos_arb
    (fun (seed, rate, col) ->
      let plan =
        Fault_plan.with_seed
          (Result.get_ok
             (Fault_plan.of_string
                (Printf.sprintf "read-error:rate=%.3f;latency:rate=0.25,mult=4" rate)))
          seed
      in
      let scope = if col then Internode.Both else Internode.Io_only in
      let sweep jobs =
        Experiment.chaos ~scales:[ 0.; 1. ] ~scope ~jobs ~plan small_config toy_app
      in
      sweep 1 = sweep test_jobs)

(* the node-9 clause makes any run's injector raise, so the scale message
   shows the sweep checked every scale before its first run *)
let test_chaos_checks_scales_first () =
  let plan = plan_of "read-error:rate=0.5,node=9" in
  Alcotest.check_raises "nan scale"
    (Invalid_argument "Fault_plan.scale: scale must be finite and non-negative (got nan)")
    (fun () ->
      ignore (Experiment.chaos ~scales:[ 1.; nan ] ~jobs:1 ~plan small_config toy_app))

(* ---- optimizer degradation chain ---------------------------------------- *)

let test_optimizer_degradation_consistent () =
  List.iter
    (fun app ->
      let plan = Experiment.inter_plan Config.default app in
      let degraded = Optimizer.degraded plan in
      List.iter
        (fun (d : Optimizer.decision) ->
          (match (d.Optimizer.stage, d.Optimizer.reason) with
          | Optimizer.Inter, Optimizer.Optimized ->
            checkb "degraded never lists full results" true
              (not (List.memq d degraded))
          | Optimizer.Inter, r ->
            Alcotest.failf "%s/%s: Inter with reason %s" app.App.name
              d.Optimizer.array_name
              (Optimizer.reason_to_string r)
          | (Optimizer.Intra | Optimizer.Canonical), Optimizer.Optimized ->
            Alcotest.failf "%s/%s: degraded stage claims Optimized" app.App.name
              d.Optimizer.array_name
          | (Optimizer.Intra | Optimizer.Canonical), _ ->
            checkb "listed as degraded" true (List.memq d degraded));
          (* reasons render machine-readably for reports and the CLI *)
          checkb "reason renders" true
            (String.length (Optimizer.reason_to_string d.Optimizer.reason) > 0))
        plan.Optimizer.decisions;
      check_int
        (app.App.name ^ ": optimized + degraded-to-canonical = total")
        (Optimizer.total_arrays plan)
        (Optimizer.optimized_count plan
        + List.length
            (List.filter
               (fun (d : Optimizer.decision) -> d.Optimizer.stage = Optimizer.Canonical)
               plan.Optimizer.decisions)))
    Suite.all

(* the --faults spec comes straight off the command line: the grammar must
   be total — structured Error on any byte string, never an exception *)
let prop_fault_plan_parse_never_raises =
  Spec_fuzz.total_on_bytes ~name:"Fault_plan.of_string is total on arbitrary bytes"
    ~seeds:
      [ (* clause-shaped prefixes that reach every parser state *)
        "read-error:"; "latency:rate="; "degrade:mult="; "cache-off:node="; "failover:";
        "retry:max="; ";;"; "read-error:rate=0.1,"; "latency:rate=nan,mult=";
        "read-error:rate=0.02;latency:rate=0.05,mult=4";
        "read-error:rate=0.3,node=0;retry:max=3,base=20000" ]
    Fault_plan.of_string

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_plan_roundtrip; prop_fault_plan_parse_never_raises;
      prop_chaos_jobs_equivalence ]

let suite =
  [
    ("prng deterministic", `Quick, test_prng_deterministic);
    ("prng ranges", `Quick, test_prng_ranges);
    ("plan grammar parses", `Quick, test_plan_parse_ok);
    ("plan grammar rejects", `Quick, test_plan_parse_errors);
    ("plan scaling", `Quick, test_plan_scale);
    ("backoff bounds", `Quick, test_backoff_bounds);
    ("retry policy validation", `Quick, test_retry_validate);
    ("offline caches all-miss", `Quick, test_cache_off_all_miss);
    ("failover shifts traffic", `Quick, test_failover_shifts_traffic);
    ("read errors retry and cost time", `Quick, test_read_errors_retry);
    ("timeouts fail over", `Quick, test_timeout_failover_path);
    ("exhausted retries fail over", `Quick, test_retries_exhausted_failover);
    ("degraded service multiplier", `Quick, test_degraded_service);
    ("injector rejects out-of-range nodes", `Quick, test_injector_rejects_bad_nodes);
    ("zero-fault identity (toy)", `Quick, test_zero_fault_identity_toy);
    ("zero-fault identity (16-app suite)", `Slow, test_zero_fault_identity_suite);
    ("optimizer degradation chain consistent", `Quick, test_optimizer_degradation_consistent);
  ]
  @ qsuite
  @ [ ("chaos checks every scale before a run", `Quick, test_chaos_checks_scales_first) ]
