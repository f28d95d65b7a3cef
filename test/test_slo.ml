(* SLO engine: parser grammar round-trips and structured errors, window
   scoring over degenerate inputs (zero traffic, all-error), budget/burn
   arithmetic, and the qcheck monotonicity law — turning a good window bad
   can never shrink consumption or alert counts. *)

open Flo_obs

let checkb = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ---- parser ------------------------------------------------------------ *)

let test_parse_roundtrip () =
  List.iter
    (fun s ->
      match Slo.parse s with
      | Error msg -> Alcotest.failf "parse %S: %s" s msg
      | Ok spec -> (
        check_str (Printf.sprintf "canonical %S round-trips" s)
          (Slo.to_string spec)
          (match Slo.parse (Slo.to_string spec) with
          | Ok again -> Slo.to_string again
          | Error msg -> Alcotest.failf "re-parse %S: %s" (Slo.to_string spec) msg)))
    [
      "p99<800us@99.9"; "p50<2ms@99"; "p90<1s@90"; "err<0.5%@99.9"; "err<5%@50";
      "p99.9<250us@99.99";
    ]

let test_parse_units () =
  let threshold s =
    match Slo.parse s with
    | Ok { Slo.objective = Slo.Latency { threshold_us; _ }; _ } -> threshold_us
    | Ok _ -> Alcotest.failf "%S parsed as error-rate" s
    | Error msg -> Alcotest.failf "parse %S: %s" s msg
  in
  checkb "us" true (threshold "p99<800us@99" = 800.);
  checkb "ms" true (threshold "p99<2ms@99" = 2000.);
  checkb "s" true (threshold "p99<1.5s@99" = 1_500_000.)

let test_parse_errors () =
  List.iter
    (fun s ->
      checkb (Printf.sprintf "rejects %S" s) true (Result.is_error (Slo.parse s)))
    [
      ""; "p99<800"; "p99<800us"; "p99<800us@"; "p99<800us@0"; "p99<800us@100";
      "p99<800us@101"; "p0<1us@99"; "p100<1us@99"; "p99<-5us@99"; "p99<1xx@99";
      "err<0.5@99"; "err<-1%@99"; "err<101%@99"; "nonsense"; "p99>800us@99";
      "@99"; "err<%@99"; "p99<us@99";
    ]

(* ---- window scoring ---------------------------------------------------- *)

let spec_of s =
  match Slo.parse s with
  | Ok spec -> spec
  | Error msg -> Alcotest.failf "parse %S: %s" s msg

let test_good_window_rules () =
  let lat = spec_of "p99<100us@99" in
  (* empty window is good: no traffic violated anything *)
  checkb "empty window good" true (Slo.good lat { Slo.total = 0; breaching = 0 });
  (* p99: at most 1% of requests may breach *)
  checkb "exactly 1% breaching good" true
    (Slo.good lat { Slo.total = 100; breaching = 1 });
  checkb "over 1% breaching bad" false
    (Slo.good lat { Slo.total = 100; breaching = 2 });
  let err = spec_of "err<50%@99" in
  checkb "half failing good at 50%" true
    (Slo.good err { Slo.total = 10; breaching = 5 });
  checkb "all failing bad" false (Slo.good err { Slo.total = 10; breaching = 10 })

let test_zero_traffic_period () =
  let v =
    Slo.evaluate (spec_of "p99<100us@99")
      (Array.make 8 { Slo.total = 0; breaching = 0 })
  in
  check_int "no bad windows" 0 v.Slo.bad_windows;
  checkb "fully compliant" true v.Slo.compliant;
  checkb "compliance 1" true (v.Slo.compliance = 1.);
  checkb "burn 0" true (v.Slo.burn_rate = 0.);
  checkb "budget intact" true (v.Slo.budget_remaining = 1.);
  check_int "no pages" 0 v.Slo.fast_pages;
  check_int "no tickets" 0 v.Slo.slow_tickets

let test_all_error_period () =
  let v =
    Slo.evaluate (spec_of "err<0.5%@99")
      (Array.make 4 { Slo.total = 10; breaching = 10 })
  in
  check_int "every window bad" 4 v.Slo.bad_windows;
  checkb "not compliant" false v.Slo.compliant;
  checkb "compliance 0" true (v.Slo.compliance = 0.);
  (* all windows bad: burn = (bad/windows)/(1-target) = 1/0.01 = 100 *)
  checkb "burn = 1/(1-target)" true (Float.abs (v.Slo.burn_rate -. 100.) < 1e-9);
  checkb "budget gone" true (v.Slo.budget_remaining = 0.);
  checkb "pages fired" true (v.Slo.fast_pages > 0)

let test_empty_period () =
  let v = Slo.evaluate (spec_of "p99<100us@99") [||] in
  check_int "no windows" 0 v.Slo.windows;
  checkb "vacuously compliant" true v.Slo.compliant;
  checkb "compliance 1" true (v.Slo.compliance = 1.)

let test_evaluate_rejects_bad_samples () =
  let spec = spec_of "p99<100us@99" in
  List.iter
    (fun (label, s) ->
      checkb label true
        (match Slo.evaluate spec [| s |] with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [
      ("negative total", { Slo.total = -1; breaching = 0 });
      ("negative breaching", { Slo.total = 5; breaching = -2 });
      ("breaching over total", { Slo.total = 3; breaching = 4 });
    ]

let test_burn_rate_arithmetic () =
  (* 2 bad of 10 windows at target 90%: budget is exactly 1 window rate,
     burn = (2/10)/0.1 = 2, consumed = 2/1 = 2, remaining 0 *)
  let samples =
    Array.init 10 (fun i ->
        if i < 2 then { Slo.total = 10; breaching = 10 }
        else { Slo.total = 10; breaching = 0 })
  in
  let v = Slo.evaluate (spec_of "err<1%@90") samples in
  check_int "bad windows" 2 v.Slo.bad_windows;
  checkb "burn 2" true (Float.abs (v.Slo.burn_rate -. 2.) < 1e-9);
  checkb "consumed 2" true (Float.abs (v.Slo.budget_consumed -. 2.) < 1e-9);
  checkb "remaining 0" true (v.Slo.budget_remaining = 0.);
  checkb "not compliant" false v.Slo.compliant

(* ---- monotonicity (qcheck) --------------------------------------------- *)

(* flipping one good window to bad can only push the verdict towards
   alarm: bad count, consumption, burn, pages, and tickets never decrease,
   compliance and remaining budget never increase *)
let prop_flip_monotone =
  QCheck.Test.make ~count:200
    ~name:"slo: flipping a good window bad never relaxes the verdict"
    QCheck.(
      make
        ~print:(fun (n, flip, target) ->
          Printf.sprintf "windows=%d flip=%d target=%g" n flip target)
        Gen.(
          let* n = int_range 1 24 in
          let* flip = int_range 0 (n - 1) in
          let* target = oneofl [ 0.5; 0.9; 0.99; 0.999 ] in
          return (n, flip, target)))
    (fun (n, flip, target) ->
      let spec =
        { Slo.objective = Slo.Error_rate { max_rate = 0.01 }; target }
      in
      (* deterministic pseudo-random good/bad pattern, then force [flip]
         good so the flipped pair differs in exactly one window *)
      let base =
        Array.init n (fun i ->
            if (i * 2654435761) land 4 = 4 && i <> flip then
              { Slo.total = 100; breaching = 100 }
            else { Slo.total = 100; breaching = 0 })
      in
      let flipped = Array.copy base in
      flipped.(flip) <- { Slo.total = 100; breaching = 100 };
      let a = Slo.evaluate spec base and b = Slo.evaluate spec flipped in
      b.Slo.bad_windows >= a.Slo.bad_windows
      && b.Slo.burn_rate >= a.Slo.burn_rate
      && b.Slo.budget_consumed >= a.Slo.budget_consumed
      && b.Slo.budget_remaining <= a.Slo.budget_remaining
      && b.Slo.compliance <= a.Slo.compliance
      && b.Slo.fast_pages >= a.Slo.fast_pages
      && b.Slo.slow_tickets >= a.Slo.slow_tickets)

let prop_parse_never_raises =
  Spec_fuzz.total_on_bytes ~name:"Slo.parse is total on arbitrary bytes"
    ~seeds:[ "p99<800us@99.9"; "p50<2ms@99"; "err<0.5%@99.9"; "p99.9<120s@90" ]
    Slo.parse

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_flip_monotone; prop_parse_never_raises ]

let suite =
  [
    ("parse round-trips", `Quick, test_parse_roundtrip);
    ("parse units", `Quick, test_parse_units);
    ("parse errors", `Quick, test_parse_errors);
    ("good-window rules", `Quick, test_good_window_rules);
    ("zero-traffic period", `Quick, test_zero_traffic_period);
    ("all-error period", `Quick, test_all_error_period);
    ("empty period", `Quick, test_empty_period);
    ("evaluate rejects bad samples", `Quick, test_evaluate_rejects_bad_samples);
    ("burn-rate arithmetic", `Quick, test_burn_rate_arithmetic);
  ]
  @ qsuite
