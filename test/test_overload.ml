(* Overload robustness: the admission controller's apportioning laws, the
   circuit breaker's hysteresis, the open-loop collapse baseline the
   controls exist to prevent, accounting invariants of the admission
   ledger, and jobs/seed determinism of every overload artifact. *)

open Flo_traffic
module Breaker = Flo_faults.Breaker

let checkb = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let test_jobs = Test_parallel.test_jobs
let small_config = Test_parallel.small_config ~block_elems:16 ~threads:8
let toy_mix = [ Test_parallel.toy_col; Test_parallel.toy_row ]

(* ---- Overload.split laws ----------------------------------------------- *)

let test_split_exact () =
  let counts = [| 3; 0; 5; 2 |] in
  let total = Array.fold_left ( + ) 0 counts in
  for keep = -2 to total + 3 do
    let s = Overload.split ~counts ~keep in
    check_int
      (Printf.sprintf "sum at keep=%d" keep)
      (min (max keep 0) total)
      (Array.fold_left ( + ) 0 s);
    Array.iteri
      (fun i v ->
        checkb "non-negative" true (v >= 0);
        checkb "pointwise capped" true (v <= counts.(i)))
      s
  done;
  checkb "empty counts" true (Overload.split ~counts:[||] ~keep:4 = [||])

let prop_split_laws =
  QCheck.Test.make ~count:200 ~name:"overload: split is an exact apportioning"
    QCheck.(
      make
        ~print:(fun (counts, keep) ->
          Printf.sprintf "counts=[%s] keep=%d"
            (String.concat ";" (List.map string_of_int counts))
            keep)
        Gen.(
          let* counts = list_size (int_range 0 6) (int_range 0 20) in
          let* keep = int_range 0 130 in
          return (counts, keep)))
    (fun (counts_l, keep) ->
      let counts = Array.of_list counts_l in
      let total = Array.fold_left ( + ) 0 counts in
      let s = Overload.split ~counts ~keep in
      let sum = Array.fold_left ( + ) 0 s in
      sum = min keep total
      && Array.for_all2 (fun v c -> v >= 0 && v <= c) s counts
      && s = Overload.split ~counts ~keep)

(* ---- params validation ------------------------------------------------- *)

let test_params_validation () =
  let ok p = Result.is_ok (Overload.validate p) in
  checkb "default valid" true (ok Overload.default);
  checkb "no controls rejected" false
    (ok { Overload.default with Overload.shed = None; breaker = None });
  checkb "breaker-only valid" true
    (ok
       { Overload.default with
         Overload.shed = None;
         breaker = Some Breaker.default });
  checkb "zero capacity rejected" false
    (ok { Overload.default with Overload.capacity = 0. });
  checkb "negative capacity rejected" false
    (ok { Overload.default with Overload.capacity = -1. });
  checkb "brownout factor 1 rejected" false
    (ok { Overload.default with Overload.brownout_factor = 1 });
  List.iter
    (fun s ->
      match Overload.policy_of_string s with
      | Ok p -> check_str "policy round-trips" s (Overload.policy_to_string p)
      | Error e -> Alcotest.failf "policy %S rejected: %s" s e)
    [ "fail-fast"; "priority"; "brownout" ];
  checkb "off is not a policy" true
    (Result.is_error (Overload.policy_of_string "off"))

(* ---- breaker state machine --------------------------------------------- *)

let spec =
  { Breaker.open_rate = 0.1; close_rate = 0.02; cooldown_windows = 2;
    probe = 0.2; node = None }

let test_breaker_opens_and_cools () =
  let b = Breaker.create spec in
  checkb "starts closed" true (Breaker.state b = Breaker.Closed);
  checkb "closed admits all" true (Breaker.admits b ~window:0 = `All);
  (* a clean window keeps it closed; a storm opens it *)
  let b = Breaker.observe b ~window:0 ~requests:100 ~errors:1 in
  checkb "1% stays closed" true (Breaker.state b = Breaker.Closed);
  let b = Breaker.observe b ~window:1 ~requests:100 ~errors:30 in
  (match Breaker.state b with
  | Breaker.Open { until_window } ->
    check_int "cooldown from next window" (1 + 1 + spec.Breaker.cooldown_windows)
      until_window
  | st -> Alcotest.failf "expected open, got %s" (Breaker.state_to_string st));
  checkb "open admits nothing" true (Breaker.admits b ~window:2 = `None);
  (* observations during cooldown are ignored *)
  let b = Breaker.observe b ~window:2 ~requests:0 ~errors:0 in
  checkb "still open mid-cooldown" true (Breaker.admits b ~window:3 = `None);
  let b = Breaker.observe b ~window:3 ~requests:0 ~errors:0 in
  checkb "half-open probe after cooldown" true
    (Breaker.admits b ~window:4 = `Probe spec.Breaker.probe)

let half_open () =
  let b = Breaker.create spec in
  let b = Breaker.observe b ~window:0 ~requests:100 ~errors:30 in
  let b = Breaker.observe b ~window:1 ~requests:0 ~errors:0 in
  let b = Breaker.observe b ~window:2 ~requests:0 ~errors:0 in
  checkb "reached half-open" true (Breaker.admits b ~window:3 <> `None
                                   && Breaker.admits b ~window:3 <> `All);
  b

(* rates strictly between close_rate and open_rate hold the state: the
   breaker cannot flap across the boundary *)
let test_breaker_hysteresis_no_flap () =
  let b = ref (half_open ()) in
  for w = 3 to 12 do
    b := Breaker.observe !b ~window:w ~requests:100 ~errors:5;
    checkb
      (Printf.sprintf "window %d holds half-open at 5%%" w)
      true
      (Breaker.state !b = Breaker.Half_open)
  done;
  (* a clean probe closes it; a storm reopens it *)
  let closed = Breaker.observe !b ~window:13 ~requests:100 ~errors:1 in
  checkb "clean probe closes" true (Breaker.state closed = Breaker.Closed);
  let reopened = Breaker.observe !b ~window:13 ~requests:100 ~errors:30 in
  checkb "storm probe reopens" true
    (match Breaker.state reopened with Breaker.Open _ -> true | _ -> false)

let test_breaker_half_open_no_traffic_holds () =
  let b = half_open () in
  let b = Breaker.observe b ~window:3 ~requests:0 ~errors:0 in
  checkb "no probe traffic holds half-open" true
    (Breaker.state b = Breaker.Half_open)

let test_breaker_spec_round_trip () =
  List.iter
    (fun s ->
      match Breaker.of_string s with
      | Error e -> Alcotest.failf "spec %S rejected: %s" s e
      | Ok sp ->
        check_str "round-trips" (Breaker.to_string sp)
          (match Breaker.of_string (Breaker.to_string sp) with
          | Ok sp' -> Breaker.to_string sp'
          | Error e -> Alcotest.failf "re-parse failed: %s" e))
    [ "open=0.2"; "open=0.3,close=0.1,cooldown=4,probe=0.5,node=1" ];
  List.iter
    (fun s -> checkb (Printf.sprintf "%S rejected" s) true
        (Result.is_error (Breaker.of_string s)))
    [ "open=0"; "open=0.1,close=0.5"; "cooldown=0"; "probe=0"; "probe=1.5";
      "bogus=1" ]

(* ---- open-loop collapse baseline --------------------------------------- *)

(* the golden baseline the controls are judged against: with overload=None
   the engine is open-loop, so at offered load far beyond capacity every
   job is served and the congestion multiplier (and with it the tail) grows
   without bound instead of saturating *)
let storm_params rate_mult =
  {
    (Engine.default_params ~mix:toy_mix) with
    Engine.tenants = 8;
    duration_s = 3.;
    rate = 1.5 *. rate_mult;
    sample = 1;
    windows = 3;
  }

let test_collapse_baseline () =
  let at mult = Engine.simulate ~jobs:1 ~config:small_config (storm_params mult) in
  let base = at 1. and stormed = at 50. in
  checkb "open loop serves everything" true
    (stormed.Engine.overload = None
     && stormed.Engine.total_requests > 20 * base.Engine.total_requests);
  let max_mult (r : Engine.result) =
    Array.fold_left
      (fun acc (s : Engine.shard_stats) -> Float.max acc s.Engine.multiplier)
      0. r.Engine.shards
  in
  checkb "multiplier grows ~linearly with offered load" true
    (max_mult stormed > 10. *. max_mult base);
  checkb "tail collapses with it" true
    (stormed.Engine.agg_p99_us > 10. *. base.Engine.agg_p99_us)

(* ---- admission accounting ---------------------------------------------- *)

let overload_params ?(shed = Some Overload.Fail_fast) ?(capacity = 1.0)
    ?breaker ?(rate_mult = 8.) () =
  {
    (storm_params rate_mult) with
    Engine.overload =
      Some { Overload.default with Overload.shed; capacity; breaker };
  }

let test_admission_accounting () =
  let r =
    Engine.simulate ~jobs:test_jobs ~config:small_config (overload_params ())
  in
  let ol =
    match r.Engine.overload with
    | Some ol -> ol
    | None -> Alcotest.fail "overload stats missing"
  in
  check_int "offered = admitted + shed" ol.Engine.ol_offered_requests
    (ol.Engine.ol_admitted_requests + ol.Engine.ol_shed_requests);
  check_int "replay served exactly the admitted cohort"
    ol.Engine.ol_admitted_requests r.Engine.total_requests;
  checkb "controller admits nonzero goodput" true
    (ol.Engine.ol_admitted_requests > 0);
  checkb "storm at 8x sheds something" true (ol.Engine.ol_shed_requests > 0);
  checkb "shed fraction consistent" true
    (Float.abs
       (ol.Engine.ol_shed_fraction
       -. float_of_int ol.Engine.ol_shed_requests
          /. float_of_int ol.Engine.ol_offered_requests)
    < 1e-9);
  (* the per-(shard, window) ledger sums to the totals *)
  let cells f =
    Array.fold_left
      (fun acc per_shard -> Array.fold_left (fun a c -> a + f c) acc per_shard)
      0 ol.Engine.ol_admissions
  in
  check_int "ledger served requests sum" ol.Engine.ol_admitted_requests
    (cells (fun c -> c.Engine.aw_served_requests));
  checkb "every cell balances" true
    (Array.for_all
       (Array.for_all (fun c ->
            c.Engine.aw_offered_jobs - c.Engine.aw_routed_out_jobs
            + c.Engine.aw_routed_in_jobs
            = c.Engine.aw_admitted_jobs + c.Engine.aw_browned_jobs
              + c.Engine.aw_shed_jobs))
       ol.Engine.ol_admissions)

(* whole-job service quantum: even when a single job exceeds the window
   target, each loaded (shard, window) still admits one job — a shard
   never stalls behind coarse quanta *)
let test_min_one_job_floor () =
  let r =
    Engine.simulate ~jobs:1 ~config:small_config
      (overload_params ~capacity:0.001 ~rate_mult:4. ())
  in
  let ol = Option.get r.Engine.overload in
  checkb "tiny capacity still admits a quantum" true
    (ol.Engine.ol_admitted_requests > 0);
  checkb "but sheds nearly everything" true
    (ol.Engine.ol_shed_fraction > 0.5)

let test_breaker_storm_fails_over () =
  let faults =
    match Flo_faults.Fault_plan.of_string "read-error:rate=0.4,node=0" with
    | Ok f -> f
    | Error e -> Alcotest.failf "fault spec: %s" e
  in
  let p =
    { (overload_params ~breaker:{ spec with Breaker.node = Some 0 } ()) with
      Engine.faults;
      windows = 6;
    }
  in
  let r = Engine.simulate ~jobs:test_jobs ~config:small_config p in
  let ol = Option.get r.Engine.overload in
  let opened =
    Array.exists
      (Array.exists (fun c ->
           match c.Engine.aw_breaker with
           | Some (Breaker.Open _) -> true
           | _ -> false))
      ol.Engine.ol_admissions
  in
  checkb "storm opens the breaker" true opened;
  checkb "open breaker routes jobs along the failover path" true
    (ol.Engine.ol_failover_jobs > 0)

(* ---- determinism ------------------------------------------------------- *)

let render (r : Engine.result) =
  let base = Traffic_report.summary r ^ Traffic_report.verdict_line r in
  match r.Engine.overload with
  | None -> base
  | Some ol -> base ^ "\n" ^ Traffic_report.overload_line r ol

let test_overload_seed_deterministic () =
  let p =
    overload_params ~shed:(Some Overload.Brownout)
      ~breaker:Breaker.default ()
  in
  let run () = render (Engine.simulate ~jobs:test_jobs ~config:small_config p) in
  check_str "same seed renders identically" (run ()) (run ())

let overload_arb =
  QCheck.make
    ~print:(fun (tenants, seed, policy, capacity, breaker, rate_mult) ->
      Printf.sprintf "tenants=%d seed=%d policy=%s capacity=%g breaker=%b mult=%g"
        tenants seed
        (match policy with
        | None -> "off"
        | Some p -> Overload.policy_to_string p)
        capacity breaker rate_mult)
    QCheck.Gen.(
      let* tenants = int_range 1 10 in
      let* seed = small_nat in
      let* policy =
        oneofl
          [ Some Overload.Fail_fast; Some Overload.Priority;
            Some Overload.Brownout; None ]
      in
      let* capacity = oneofl [ 0.25; 1.0; 4.0 ] in
      let* breaker = bool in
      let* rate_mult = oneofl [ 1.; 8. ] in
      return (tenants, seed, policy, capacity, breaker, rate_mult))

let prop_overload_jobs_equivalence =
  QCheck.Test.make ~count:10
    ~name:"overload: reports identical at --jobs 1 and --jobs N"
    overload_arb
    (fun (tenants, seed, policy, capacity, breaker, rate_mult) ->
      QCheck.assume (policy <> None || breaker);
      let faults =
        match Flo_faults.Fault_plan.of_string "read-error:rate=0.1,node=0" with
        | Ok f -> f
        | Error _ -> assert false
      in
      let p =
        { (overload_params ~shed:policy ~capacity
             ?breaker:(if breaker then Some Breaker.default else None)
             ~rate_mult ())
          with
          Engine.tenants;
          seed;
          faults;
        }
      in
      let run jobs = render (Engine.simulate ~jobs ~config:small_config p) in
      run 1 = run test_jobs)

(* ---- one set of served cells ------------------------------------------- *)

let golden_faults spec =
  match Flo_faults.Fault_plan.of_string spec with
  | Ok f -> f
  | Error e -> Alcotest.failf "fault spec: %s" e

(* replay, SLO scoring and the tracer all consume the engine's cell walk:
   per tenant, the latency-SLO totals summed over windows and (at sample
   rate 1) the head traces both count exactly the requests the replay
   served, with controls off and on *)
let prop_served_cells_agree =
  QCheck.Test.make ~count:12
    ~name:"pipeline: replay, SLO and tracer see the same served cells"
    QCheck.(
      make
        ~print:(fun (tenants, seed, windows, retrying, controls) ->
          Printf.sprintf "tenants=%d seed=%d windows=%d retrying=%b controls=%s"
            tenants seed windows retrying
            (match controls with
            | None -> "off"
            | Some (policy, capacity, breaker) ->
              Printf.sprintf "%s capacity=%g breaker=%b"
                (Option.fold ~none:"off" ~some:Overload.policy_to_string policy)
                capacity breaker))
        Gen.(
          let* tenants = int_range 1 4 in
          let* seed = small_nat in
          let* windows = int_range 1 4 in
          let* retrying = bool in
          let* controls =
            opt
              (let* policy =
                 oneofl
                   [ Some Overload.Fail_fast; Some Overload.Priority;
                     Some Overload.Brownout; None ]
               in
               let* capacity = oneofl [ 1.; 8.; 100. ] in
               let* breaker = bool in
               return (policy, capacity, if policy = None then true else breaker))
          in
          return (tenants, seed, windows, retrying, controls)))
    (fun (tenants, seed, windows, retrying, controls) ->
      let p =
        {
          (Engine.default_params ~mix:toy_mix) with
          Engine.tenants;
          seed;
          windows;
          duration_s = 1.;
          rate = 1.;
          sample = 1;
          faults =
            golden_faults
              (if retrying then "read-error:rate=0.2;retry:max=2,base=300"
               else "read-error:rate=0.1,node=0");
          trace = Some { Tracer.default with Tracer.sample_rate = 1 };
          overload =
            Option.map
              (fun (shed, capacity, breaker) ->
                { Overload.default with
                  Overload.shed;
                  capacity;
                  breaker = (if breaker then Some Breaker.default else None) })
              controls;
        }
      in
      let r = Engine.simulate ~jobs:test_jobs ~config:small_config p in
      let latency = Result.get_ok (Flo_obs.Slo.parse "p99<1s@99") in
      Array.for_all
        (fun (s : Engine.tenant_stats) ->
          let slo_total =
            Array.fold_left
              (fun a (x : Flo_obs.Slo.sample) -> a + x.Flo_obs.Slo.total)
              0
              (Slo_eval.samples_of_tenant latency r s.Engine.tenant)
          in
          let head =
            List.fold_left
              (fun a (t : Flo_obs.Trace.t) ->
                if t.Flo_obs.Trace.tenant = s.Engine.tenant
                   && List.mem Flo_obs.Trace.Head t.Flo_obs.Trace.reasons
                then a + t.Flo_obs.Trace.count
                else a)
              0 r.Engine.traces
          in
          slo_total = s.Engine.requests && head = s.Engine.requests)
        r.Engine.tenants_stats)

(* ---- golden pipeline outputs ------------------------------------------- *)

(* Both goldens pin every view of one run — the traffic report, both SLO
   objectives, and an MD5 digest of the sampled traces — so any change to
   what the replay, the SLO walk or the tracer sees shows up as a diff.
   Regenerate with:
   FLOPT_GOLDEN_UPDATE=$PWD/test dune exec test/main.exe -- test overload -q *)
let golden_render (r : Engine.result) =
  let slo spec =
    match Flo_obs.Slo.parse spec with
    | Ok s -> Slo_report.summary r (Slo_eval.evaluate s r)
    | Error e -> Alcotest.failf "slo spec %S: %s" spec e
  in
  let traces = List.map Flo_obs.Trace.to_json r.Engine.traces in
  String.concat "\n"
    [
      render r;
      slo "p99<1s@90";
      slo "err<1%@90";
      Printf.sprintf "traces=%d md5=%s" (List.length traces)
        (Digest.to_hex (Digest.string (String.concat "\n" traces)));
      "";
    ]

let check_golden path r =
  let actual = golden_render r in
  match Sys.getenv_opt "FLOPT_GOLDEN_UPDATE" with
  | Some dir ->
    let oc = open_out_bin (Filename.concat dir path) in
    output_string oc actual;
    close_out oc
  | None ->
    let ic = open_in_bin path in
    let expected = really_input_string ic (in_channel_length ic) in
    close_in ic;
    check_str "matches golden file" expected actual

let golden_trace = Some { Tracer.sample_rate = 64; breach_us = 2e6 }

(* controls off: several windows, a retrying fault plan and tracing on *)
let test_controls_off_identity () =
  let p =
    {
      (storm_params 1.) with
      Engine.windows = 5;
      faults = golden_faults "read-error:rate=0.1;retry:max=2,base=20000";
      trace = golden_trace;
    }
  in
  check_golden "golden_traffic_plain.expected"
    (Engine.simulate ~jobs:test_jobs ~config:small_config p)

(* priority shedding, a breaker on node 0 and retry suppression together *)
let controls_on_run =
  lazy
    (Engine.simulate ~jobs:test_jobs ~config:small_config
       {
         (overload_params ~shed:(Some Overload.Priority) ~capacity:100.
            ~breaker:{ spec with Breaker.node = Some 0 } ())
         with
         Engine.windows = 6;
         faults = golden_faults "read-error:rate=0.3,node=0;retry:max=3,base=20000";
         trace = golden_trace;
       })

let test_controls_on_golden () =
  let r = Lazy.force controls_on_run in
  let ol = Option.get r.Engine.overload in
  checkb "retry suppression fired" true (ol.Engine.ol_retry_suppressed_windows > 0);
  checkb "something was shed" true (ol.Engine.ol_shed_requests > 0);
  checkb "the breaker opened" true
    (Array.exists
       (Array.exists (fun c ->
            match c.Engine.aw_breaker with Some (Breaker.Open _) -> true | _ -> false))
       ol.Engine.ol_admissions);
  check_golden "golden_traffic_overload.expected" r

(* the Perfetto export of the same run's traces, pinned byte for byte: the
   golden's trace md5 covers the JSONL encoder, this one the exporter *)
let test_controls_on_perfetto_digest () =
  let r = Lazy.force controls_on_run in
  let json = Flo_analysis.Perfetto.json_of_traces r.Engine.traces in
  check_str "perfetto export md5" "7ed2349e8d351de1da029162e435574e"
    (Digest.to_hex (Digest.string json))

let prop_breaker_parse_never_raises =
  Spec_fuzz.total_on_bytes ~name:"Breaker.of_string is total on arbitrary bytes"
    ~seeds:[ "open=0.1,close=0.02,cooldown=2,probe=0.2,node=0"; "open=0.5"; "cooldown=3,probe=1" ]
    Breaker.of_string

let prop_policy_parse_never_raises =
  Spec_fuzz.total_on_bytes ~name:"Overload.policy_of_string is total on arbitrary bytes"
    ~seeds:[ "fail-fast"; "priority"; "brownout" ]
    Overload.policy_of_string

let suite =
  [
    ("split exact", `Quick, test_split_exact);
    ("params validation", `Quick, test_params_validation);
    ("breaker opens and cools", `Quick, test_breaker_opens_and_cools);
    ("breaker hysteresis no flap", `Quick, test_breaker_hysteresis_no_flap);
    ("breaker half-open holds", `Quick, test_breaker_half_open_no_traffic_holds);
    ("breaker spec round-trip", `Quick, test_breaker_spec_round_trip);
    ("collapse baseline", `Quick, test_collapse_baseline);
    ("admission accounting", `Quick, test_admission_accounting);
    ("min-one-job floor", `Quick, test_min_one_job_floor);
    ("breaker storm fails over", `Quick, test_breaker_storm_fails_over);
    ("seed determinism", `Quick, test_overload_seed_deterministic);
    ("controls-off identity", `Quick, test_controls_off_identity);
    ("controls-on golden", `Quick, test_controls_on_golden);
    ("controls-on golden perfetto export", `Quick, test_controls_on_perfetto_digest);
    QCheck_alcotest.to_alcotest prop_split_laws;
    QCheck_alcotest.to_alcotest prop_overload_jobs_equivalence;
    QCheck_alcotest.to_alcotest prop_served_cells_agree;
    QCheck_alcotest.to_alcotest prop_breaker_parse_never_raises;
    QCheck_alcotest.to_alcotest prop_policy_parse_never_raises;
  ]
