(* The multi-tenant traffic engine: statistical properties of the Zipf and
   arrival samplers (tolerance bands sized >= 5 sigma so random qcheck seeds
   cannot flake them), seed determinism and substream enumeration-order
   independence, the jobs-equivalence of `flopt traffic` output, kernel
   apportionment laws, and degenerate-input report coverage. *)

open Flo_traffic

let checkb = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let test_jobs = Test_parallel.test_jobs

(* ---- Zipf -------------------------------------------------------------- *)

let test_zipf_pmf_sums_to_one () =
  List.iter
    (fun (s, n) ->
      let z = Zipf.make ~s ~n in
      let total = ref 0. in
      for r = 0 to n - 1 do
        let p = Zipf.pmf z r in
        checkb "pmf positive" true (p > 0.);
        total := !total +. p
      done;
      checkb
        (Printf.sprintf "pmf sums to 1 (s=%g n=%d)" s n)
        true
        (Float.abs (!total -. 1.) < 1e-9);
      (* popularity is monotone decreasing in rank *)
      for r = 1 to n - 1 do
        checkb "pmf decreasing" true (Zipf.pmf z r <= Zipf.pmf z (r - 1))
      done)
    [ (0.5, 2); (1.1, 16); (2.0, 7); (1.0, 1) ]

let test_zipf_validation () =
  List.iter
    (fun (s, n) ->
      checkb
        (Printf.sprintf "rejects s=%g n=%d" s n)
        true
        (match Zipf.make ~s ~n with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ (0., 4); (-1., 4); (1.1, 0); (1.1, -3); (Float.nan, 4) ]

(* rank-frequency over 20k draws within an absolute band: each frequency is
   a binomial proportion with sd <= sqrt(0.25/20000) ~ 0.0035, so 0.025 is
   over 7 sigma *)
let prop_zipf_rank_frequency =
  QCheck.Test.make ~count:20
    ~name:"zipf: empirical rank frequencies track the pmf"
    QCheck.(
      make
        ~print:(fun (s, n, seed) -> Printf.sprintf "s=%g n=%d seed=%d" s n seed)
        Gen.(
          let* s = oneofl [ 0.7; 1.1; 1.5 ] in
          let* n = int_range 2 10 in
          let* seed = small_nat in
          return (s, n, seed)))
    (fun (s, n, seed) ->
      let z = Zipf.make ~s ~n in
      let prng = Flo_faults.Prng.for_stream ~seed ~stream:0 in
      let draws = 20_000 in
      let freq = Array.make n 0 in
      for _ = 1 to draws do
        let r = Zipf.sample z prng in
        if r < 0 || r >= n then QCheck.Test.fail_report "rank out of support";
        freq.(r) <- freq.(r) + 1
      done;
      Array.for_all Fun.id
        (Array.init n (fun r ->
             Float.abs
               ((float_of_int freq.(r) /. float_of_int draws) -. Zipf.pmf z r)
             < 0.025)))

(* ---- arrivals ---------------------------------------------------------- *)

(* 10k+ exponential draws: sample mean of inter-arrivals has sd
   (1/rate)/sqrt(n) ~ 0.2% of the mean, so a 5% band is ~25 sigma; the
   variance estimator's sd is var*sqrt(2/n) ~ 1.4%, so 20% is ~14 sigma *)
let test_poisson_interarrival_moments () =
  let rate = 5. in
  let prng = Flo_faults.Prng.for_stream ~seed:11 ~stream:3 in
  let n = 10_000 in
  let xs = Array.init n (fun _ -> Arrivals.exponential prng ~rate) in
  let mean = Array.fold_left ( +. ) 0. xs /. float_of_int n in
  let var =
    Array.fold_left (fun a x -> a +. ((x -. mean) ** 2.)) 0. xs /. float_of_int n
  in
  checkb "all positive" true (Array.for_all (fun x -> x >= 0.) xs);
  checkb
    (Printf.sprintf "mean %.4f ~ 1/rate" mean)
    true
    (Float.abs (mean -. (1. /. rate)) < 0.05 /. rate);
  checkb
    (Printf.sprintf "variance %.5f ~ 1/rate^2" var)
    true
    (Float.abs (var -. (1. /. (rate *. rate))) < 0.2 /. (rate *. rate))

(* arrival count over a long window: Poisson(rate*T) has sd sqrt(rate*T);
   a 5*sqrt band flakes ~1 in 3.5 million runs *)
let prop_arrival_count_tracks_rate =
  QCheck.Test.make ~count:20 ~name:"arrivals: count ~ rate * duration"
    QCheck.(
      make
        ~print:(fun (rate, seed, bursty) ->
          Printf.sprintf "rate=%g seed=%d bursty=%b" rate seed bursty)
        Gen.(
          let* rate = oneofl [ 2.; 8. ] in
          let* seed = small_nat in
          let* bursty = bool in
          return (rate, seed, bursty)))
    (fun (rate, seed, bursty) ->
      let process =
        if bursty then Arrivals.Bursty { on_s = 3.; off_s = 1. }
        else Arrivals.Poisson
      in
      let duration_s = 500. in
      let prng = Flo_faults.Prng.for_stream ~seed ~stream:1 in
      let n = Arrivals.count prng ~process ~rate ~duration_s in
      let expected = rate *. duration_s in
      (* the on/off modulation widens the count spread; double the band *)
      let band = (if bursty then 10. else 5.) *. sqrt expected in
      Float.abs (float_of_int n -. expected) < band)

let test_arrivals_ordered_and_in_window () =
  List.iter
    (fun process ->
      let prng = Flo_faults.Prng.for_stream ~seed:5 ~stream:2 in
      let last = ref (-1.) in
      let n = ref 0 in
      Arrivals.iter prng ~process ~rate:4. ~duration_s:25. (fun t ->
          checkb "within window" true (t >= 0. && t < 25.);
          checkb "non-decreasing" true (t >= !last);
          last := t;
          incr n);
      checkb "some arrivals" true (!n > 0))
    [ Arrivals.Poisson; Arrivals.Bursty { on_s = 0.5; off_s = 0.5 } ]

let test_arrivals_validation () =
  List.iter
    (fun p ->
      checkb "invalid process rejected" true
        (Result.is_error (Arrivals.validate p)))
    [
      Arrivals.Bursty { on_s = 0.; off_s = 1. };
      Arrivals.Bursty { on_s = 1.; off_s = -1. };
      Arrivals.Bursty { on_s = Float.nan; off_s = 1. };
    ];
  checkb "poisson valid" true (Result.is_ok (Arrivals.validate Arrivals.Poisson))

(* ---- seed determinism -------------------------------------------------- *)

let test_same_seed_same_event_stream () =
  let timeline seed =
    let prng = Flo_faults.Prng.for_stream ~seed ~stream:7 in
    let acc = ref [] in
    Arrivals.iter prng ~process:(Arrivals.Bursty { on_s = 2.; off_s = 1. })
      ~rate:3. ~duration_s:50.
      (fun t -> acc := t :: !acc);
    List.rev !acc
  in
  checkb "same seed, identical timeline" true (timeline 42 = timeline 42);
  checkb "different seed, different timeline" true (timeline 42 <> timeline 43)

let small_config = Test_parallel.small_config ~block_elems:16 ~threads:8
let toy_mix = [ Test_parallel.toy_col; Test_parallel.toy_row ]

let toy_params =
  {
    (Engine.default_params ~mix:toy_mix) with
    Engine.tenants = 12;
    duration_s = 3.;
    rate = 1.5;
    sample = 1;
  }

let test_simulate_replay_exact () =
  let render () =
    let r = Engine.simulate ~jobs:1 ~config:small_config toy_params in
    Traffic_report.summary r ^ Traffic_report.verdict_line r
  in
  check_str "two runs render identically" (render ()) (render ())

(* a tenant's substreams are keyed by (seed, tenant), never by enumeration
   order: growing the tenant count must not disturb earlier tenants' layout
   decisions or job counts *)
let test_substreams_enumeration_independent () =
  let stats tenants =
    Engine.simulate ~jobs:1 ~config:small_config
      { toy_params with Engine.tenants }
  in
  let small = stats 5 and large = stats 11 in
  for t = 0 to 4 do
    let a = small.Engine.tenants_stats.(t)
    and b = large.Engine.tenants_stats.(t) in
    checkb
      (Printf.sprintf "tenant %d layout decision stable" t)
      true
      (a.Engine.optimized = b.Engine.optimized);
    check_int (Printf.sprintf "tenant %d job count stable" t) a.Engine.jobs
      b.Engine.jobs;
    checkb
      (Printf.sprintf "tenant %d rank mix stable" t)
      true
      (a.Engine.rank_jobs = b.Engine.rank_jobs)
  done

(* ---- jobs equivalence (qcheck) ----------------------------------------- *)

let traffic_params_arb =
  QCheck.make
    ~print:(fun (tenants, seed, zipf_s, opt_share, bursty, noisy) ->
      Printf.sprintf "tenants=%d seed=%d zipf=%g opt=%g bursty=%b noisy=%g"
        tenants seed zipf_s opt_share bursty noisy)
    QCheck.Gen.(
      let* tenants = int_range 0 10 in
      let* seed = small_nat in
      let* zipf_s = oneofl [ 0.8; 1.1; 1.6 ] in
      let* opt_share = oneofl [ 0.; 0.5; 1. ] in
      let* bursty = bool in
      let* noisy = oneofl [ 1.; 4. ] in
      return (tenants, seed, zipf_s, opt_share, bursty, noisy))

let prop_traffic_jobs_equivalence =
  QCheck.Test.make ~count:10
    ~name:"traffic: gated output identical at --jobs 1 and --jobs N"
    traffic_params_arb
    (fun (tenants, seed, zipf_s, opt_share, bursty, noisy) ->
      let params =
        {
          (Engine.default_params ~mix:toy_mix) with
          Engine.tenants;
          seed;
          duration_s = 2.;
          zipf_s;
          opt_share;
          noisy_boost = noisy;
          process =
            (if bursty then Arrivals.Bursty { on_s = 1.; off_s = 0.5 }
             else Arrivals.Poisson);
          sample = 1;
        }
      in
      let render jobs =
        let r = Engine.simulate ~jobs ~config:small_config params in
        Traffic_report.summary r ^ Traffic_report.verdict_line r
      in
      render 1 = render test_jobs)

(* ---- kernels ----------------------------------------------------------- *)

let test_kernel_compile_shapes () =
  List.iter
    (fun mode ->
      let k = Kernel.compile ~config:small_config ~mode Test_parallel.toy_col in
      checkb "requests positive" true (k.Kernel.requests_per_job > 0);
      checkb "demand positive" true (k.Kernel.demand_us_per_job > 0.);
      checkb "classes non-empty" true (Array.length k.Kernel.classes > 0);
      let wsum =
        Array.fold_left (fun a c -> a +. c.Kernel.weight) 0. k.Kernel.classes
      in
      checkb "weights sum to 1" true (Float.abs (wsum -. 1.) < 1e-9);
      Array.iter
        (fun c -> checkb "latency positive" true (c.Kernel.latency_us > 0.))
        k.Kernel.classes)
    [ Kernel.Default; Kernel.Inter ]

(* Byte gate on the tracing collector: every profiled kernel of the suite
   at sample 8, fault-free, under the overload-storm fault plan, and under
   that plan's retry-suppressed (fail-fast) variant.  The digest covers each
   representative's latency and step durations at full precision, its step
   names and the class's faulty count, so a change to the collector's
   arithmetic, step order, tie rule or flush order shows up here. *)
let storm_plan =
  match Flo_faults.Fault_plan.of_string "read-error:rate=0.05;retry:max=3,base=20000" with
  | Ok p -> Flo_faults.Fault_plan.with_seed p 42
  | Error e -> failwith e

let profile_settings =
  let retry = storm_plan.Flo_faults.Fault_plan.retry in
  [
    ("fault-free", Flo_faults.Fault_plan.empty, "44c6f15dd65852ead1c8281c6935f377");
    ("storm", storm_plan, "50a012c889a182438bcbb2ac80b3ff0f");
    ( "storm, retries suppressed",
      { storm_plan with
        Flo_faults.Fault_plan.retry = { retry with Flo_faults.Retry.max_retries = 0 } },
      "e0bd9b0279253f9f008128a7bb3eff98" );
  ]

let render_profiles b (k : Kernel.t) =
  Printf.bprintf b "%s %s classes=%d\n" k.Kernel.app (Kernel.mode_to_string k.Kernel.mode)
    (Array.length k.Kernel.classes);
  Array.iteri
    (fun i p ->
      match p with
      | None -> Printf.bprintf b "  %d none\n" i
      | Some (p : Kernel.profile) ->
        Printf.bprintf b "  %d rep=%.17g faulty=%d" i p.Kernel.rep_latency_us p.Kernel.faulty;
        List.iter
          (fun s -> Printf.bprintf b " %s=%.17g" s.Kernel.step_name s.Kernel.step_us)
          p.Kernel.rep_steps;
        Buffer.add_char b '\n')
    k.Kernel.profiles

let test_kernel_profiles_pinned () =
  let config = Flo_engine.Config.default in
  let shape = Flo_obs.Histogram.create () in
  let tasks =
    Array.of_list
      (List.concat_map
         (fun app -> [ (app, Kernel.Default); (app, Kernel.Inter) ])
         Flo_workloads.Suite.all)
  in
  List.iter
    (fun (name, faults, expected) ->
      let kernels =
        Flo_engine.Parallel.map ~jobs:test_jobs
          (fun (app, mode) -> Kernel.compile ~sample:8 ~faults ~profile:true ~config ~mode app)
          tasks
      in
      let b = Buffer.create 65536 in
      Array.iter
        (fun (k : Kernel.t) ->
          let where = Printf.sprintf "%s %s (%s)" k.Kernel.app
              (Kernel.mode_to_string k.Kernel.mode) name in
          (* alignment law: one profile per class, and each representative
             lies in the bucket its class stands for *)
          check_int (where ^ ": one profile per class") (Array.length k.Kernel.classes)
            (Array.length k.Kernel.profiles);
          Array.iteri
            (fun i p ->
              match p with
              | None -> Alcotest.failf "%s: class %d has no representative" where i
              | Some (p : Kernel.profile) ->
                check_int
                  (Printf.sprintf "%s: class %d representative in its bucket" where i)
                  (Flo_obs.Histogram.value_index shape k.Kernel.classes.(i).Kernel.latency_us)
                  (Flo_obs.Histogram.value_index shape p.Kernel.rep_latency_us))
            k.Kernel.profiles;
          render_profiles b k)
        kernels;
      check_str (name ^ ": profile digest") expected
        (Digest.to_hex (Digest.string (Buffer.contents b))))
    profile_settings

let prop_apportion_sums_exactly =
  QCheck.Test.make ~count:100
    ~name:"kernel: apportionment sums exactly to the request count"
    QCheck.(pair (int_bound 2_000_000) (int_bound 1000))
    (fun (requests, salt) ->
      let k =
        Kernel.compile ~config:small_config
          ~mode:(if salt mod 2 = 0 then Kernel.Default else Kernel.Inter)
          Test_parallel.toy_row
      in
      let counts = Kernel.apportion k ~requests in
      Array.length counts = Array.length k.Kernel.classes
      && Array.for_all (fun c -> c >= 0) counts
      && Array.fold_left ( + ) 0 counts = requests
      && Kernel.apportion k ~requests = counts)

(* ---- degenerate inputs ------------------------------------------------- *)

let test_degenerate_reports_render () =
  let render params =
    let r = Engine.simulate ~jobs:1 ~config:small_config params in
    let s = Traffic_report.summary r ^ Traffic_report.verdict_line r in
    checkb "renders non-empty" true (String.length s > 0);
    r
  in
  (* zero tenants: no traffic at all *)
  let r0 = render { toy_params with Engine.tenants = 0 } in
  check_int "0 tenants, 0 requests" 0 r0.Engine.total_requests;
  checkb "0 tenants, fairness 1" true (r0.Engine.fairness = 1.);
  checkb "0 tenants, p99 0" true (r0.Engine.agg_p99_us = 0.);
  (* one tenant: no neighbors to be noisy towards *)
  let r1 = render { toy_params with Engine.tenants = 1; noisy_boost = 4. } in
  checkb "1 tenant, no noisy delta" true (r1.Engine.noisy_p99_delta_pct = None);
  (* single-app mix, everything optimized: no default cohort to compare *)
  let rs =
    render
      {
        toy_params with
        Engine.mix = [ Test_parallel.toy_col ];
        opt_share = 1.;
        tenants = 3;
      }
  in
  checkb "single-app mix, no opt delta" true (rs.Engine.opt_p50_advantage_pct = None);
  (* empty-histogram percentile edge straight through the Report path *)
  let h = Flo_obs.Histogram.create () in
  checkb "empty histogram p99 = 0" true (Flo_obs.Histogram.percentile h 0.99 = 0.)

let test_validate_rejects_bad_params () =
  List.iter
    (fun (label, p) ->
      checkb label true (Result.is_error (Engine.validate p)))
    [
      ("empty mix", { toy_params with Engine.mix = [] });
      ("negative tenants", { toy_params with Engine.tenants = -1 });
      ("zero duration", { toy_params with Engine.duration_s = 0. });
      ("zero rate", { toy_params with Engine.rate = 0. });
      ("zero zipf", { toy_params with Engine.zipf_s = 0. });
      ("opt share over 1", { toy_params with Engine.opt_share = 1.5 });
      ("noisy below 1", { toy_params with Engine.noisy_boost = 0.5 });
      ("zero sample", { toy_params with Engine.sample = 0 });
      ( "bad burst",
        { toy_params with Engine.process = Arrivals.Bursty { on_s = 0.; off_s = 1. } } );
    ];
  checkb "defaults valid" true (Result.is_ok (Engine.validate toy_params))

let test_tenant_requests_sum_to_total () =
  let r = Engine.simulate ~jobs:test_jobs ~config:small_config toy_params in
  let total =
    Array.fold_left (fun acc s -> acc + s.Engine.requests) 0 r.Engine.tenants_stats
  in
  check_int "per-tenant requests sum to the total" r.Engine.total_requests total

(* ---- SLO over the engine ----------------------------------------------- *)

let slo_spec s =
  match Flo_obs.Slo.parse s with
  | Ok spec -> spec
  | Error msg -> Alcotest.failf "parse %S: %s" s msg

let storm_plan =
  match Flo_faults.Fault_plan.of_string "read-error:rate=0.05" with
  | Ok p -> Flo_faults.Fault_plan.with_seed p 7
  | Error msg -> Alcotest.failf "fault plan: %s" msg

let test_slo_windows_jobs_equivalent () =
  (* the full windowed SLO report — congestion multipliers, burn rates,
     alerts, faults baked into the kernels — must be byte-identical at
     every jobs setting *)
  let params =
    {
      toy_params with
      Engine.tenants = 6;
      windows = 5;
      opt_share = 0.5;
      faults = storm_plan;
    }
  in
  let render spec_str jobs =
    let r = Engine.simulate ~jobs ~config:small_config params in
    let e = Slo_eval.evaluate (slo_spec spec_str) r in
    Slo_report.summary r e ^ Slo_report.verdict_line r e
  in
  List.iter
    (fun spec_str ->
      check_str
        (Printf.sprintf "%s report jobs-invariant" spec_str)
        (render spec_str 1)
        (render spec_str test_jobs))
    [ "p99<500us@99"; "err<0.5%@99.9" ]

let test_slo_storm_burns_default_cohort_more () =
  (* a read-error storm: failures happen on disk reads, and the optimized
     layouts do fewer of them per element access, so the default cohort
     must consume more error budget *)
  let params =
    {
      toy_params with
      Engine.tenants = 8;
      windows = 4;
      opt_share = 0.5;
      faults = storm_plan;
    }
  in
  let r = Engine.simulate ~jobs:test_jobs ~config:small_config params in
  (* threshold sits between the cohorts' error rates: the default layouts'
     extra disk reads push their windows over it, the optimized stay under *)
  let e = Slo_eval.evaluate (slo_spec "err<0.5%@99.9") r in
  let burn optimized =
    match
      List.find_opt
        (fun (row : Slo_eval.row) -> row.Slo_eval.scope = Slo_eval.Cohort optimized)
        e.Slo_eval.cohort_rows
    with
    | Some row -> row.Slo_eval.verdict.Flo_obs.Slo.budget_consumed
    | None -> Alcotest.failf "missing cohort row (optimized=%b)" optimized
  in
  checkb "storm burns budget at all" true (burn false > 0.);
  checkb "default cohort burns more than optimized" true (burn false > burn true)

let test_slo_fault_free_run_has_no_errors () =
  let params = { toy_params with Engine.tenants = 4; windows = 4 } in
  let r = Engine.simulate ~jobs:1 ~config:small_config params in
  let e = Slo_eval.evaluate (slo_spec "err<0.01%@99.9") r in
  let v = e.Slo_eval.fleet.Slo_eval.verdict in
  checkb "no error burn without faults" true (v.Flo_obs.Slo.burn_rate = 0.);
  checkb "compliant" true v.Flo_obs.Slo.compliant

let test_windows_param_validation () =
  checkb "zero windows rejected" true
    (Result.is_error (Engine.validate { toy_params with Engine.windows = 0 }));
  checkb "negative windows rejected" true
    (Result.is_error (Engine.validate { toy_params with Engine.windows = -2 }));
  checkb "many windows fine" true
    (Result.is_ok (Engine.validate { toy_params with Engine.windows = 64 }))

let test_windowed_totals_match_aggregate () =
  (* windowing repartitions the same jobs: per-window rank ledgers must sum
     to the aggregate rank ledger, at every windows setting *)
  let totals params =
    let r = Engine.simulate ~jobs:1 ~config:small_config params in
    Array.map
      (fun (s : Engine.tenant_stats) ->
        let summed = Array.make (Array.length s.Engine.rank_jobs) 0 in
        Array.iter
          (Array.iteri (fun rank n -> summed.(rank) <- summed.(rank) + n))
          s.Engine.window_rank_jobs;
        (s.Engine.jobs, s.Engine.rank_jobs, summed))
      r.Engine.tenants_stats
  in
  List.iter
    (fun windows ->
      Array.iter
        (fun (jobs, rank_jobs, summed) ->
          checkb
            (Printf.sprintf "windows=%d ledger sums to aggregate" windows)
            true
            (rank_jobs = summed);
          check_int
            (Printf.sprintf "windows=%d ledger sums to job count" windows)
            jobs
            (Array.fold_left ( + ) 0 summed))
        (totals { toy_params with Engine.tenants = 5; windows }))
    [ 1; 3; 8 ]

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_zipf_rank_frequency;
      prop_arrival_count_tracks_rate;
      prop_traffic_jobs_equivalence;
      prop_apportion_sums_exactly;
    ]

let suite =
  [
    ("zipf pmf", `Quick, test_zipf_pmf_sums_to_one);
    ("zipf validation", `Quick, test_zipf_validation);
    ("poisson inter-arrival moments", `Quick, test_poisson_interarrival_moments);
    ("arrivals ordered in window", `Quick, test_arrivals_ordered_and_in_window);
    ("arrivals validation", `Quick, test_arrivals_validation);
    ("same seed, same event stream", `Quick, test_same_seed_same_event_stream);
    ("simulate replay-exact", `Quick, test_simulate_replay_exact);
    ("substreams enumeration-independent", `Quick, test_substreams_enumeration_independent);
    ("kernel compile shapes", `Quick, test_kernel_compile_shapes);
    ("kernel profiles pinned (16-app suite)", `Slow, test_kernel_profiles_pinned);
    ("degenerate reports render", `Quick, test_degenerate_reports_render);
    ("params validation", `Quick, test_validate_rejects_bad_params);
    ("per-tenant requests sum to the total", `Quick, test_tenant_requests_sum_to_total);
    ("slo report jobs-invariant", `Quick, test_slo_windows_jobs_equivalent);
    ("slo storm burns default cohort more", `Quick,
     test_slo_storm_burns_default_cohort_more);
    ("slo fault-free run clean", `Quick, test_slo_fault_free_run_has_no_errors);
    ("windows validation", `Quick, test_windows_param_validation);
    ("windowed ledgers sum to aggregate", `Quick,
     test_windowed_totals_match_aggregate);
  ]
  @ qsuite
