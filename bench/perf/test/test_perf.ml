(* The benchmark's own parts: statistics and the percentile-support rule,
   the span ledger, the program generator, the expected-output format, and
   the harness replay and pass steps the traced run depends on. *)

open Perf_kit
open Flo_core
open Flo_poly

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf msg = Alcotest.(check (float 1e-9)) msg
let checks = Alcotest.(check string)

(* ---- statistics --------------------------------------------------------- *)

(* reference values from Python's statistics.quantiles(data, n=4) *)
let test_quartiles () =
  let s = Measure.summarize (Array.init 10 (fun i -> float_of_int (10 - i))) in
  checki "n" 10 s.n;
  checkf "q1" 2.75 s.q1;
  checkf "median" 5.5 s.median;
  checkf "q3" 8.25 s.q3;
  let s = Measure.summarize [| 5.; 1.; 4.; 2.; 3. |] in
  checkf "odd q1" 1.5 s.q1;
  checkf "odd median" 3. s.median;
  checkf "odd q3" 4.5 s.q3;
  let s = Measure.summarize [| 7. |] in
  checkb "one sample" true (s.q1 = 7. && s.median = 7. && s.q3 = 7.);
  Alcotest.check_raises "no samples" (Invalid_argument "Measure.quantile: no samples") (fun () ->
      ignore (Measure.summarize [||]))

let test_percentile_support () =
  let samples n = Array.init n (fun i -> float_of_int (i + 1)) in
  checkb "p99 of 1000 has 10 beyond" true (Measure.percentile (samples 1000) ~pct:99 <> None);
  checkb "p99 of 999 has 9 beyond" true (Measure.percentile (samples 999) ~pct:99 = None);
  checkb "p50 of 20" true (Measure.percentile (samples 20) ~pct:50 <> None);
  checkb "p50 of 19" true (Measure.percentile (samples 19) ~pct:50 = None);
  (match Measure.percentile (samples 1000) ~pct:99 with
  | Some v -> checkf "p99 value" 990.99 v
  | None -> Alcotest.fail "p99 missing");
  Alcotest.check_raises "pct range" (Invalid_argument "Measure.percentile: pct must be in 1..99")
    (fun () -> ignore (Measure.percentile (samples 10) ~pct:100))

let test_measure () =
  let setups = ref 0 and untimed = ref 0 and timed = ref 0 in
  let run =
    Measure.measure ~min_iters:5 ~seconds:0.001
      ~setup:(fun () ->
        incr setups;
        fun () -> ())
      ~check:(fun ~timed:t () -> if t then incr timed else incr untimed)
      ()
  in
  checki "three set-ups" 3 !setups;
  checki "one warmup per set-up" !setups !untimed;
  checki "set-up samples" !setups (Array.length run.setup_s);
  checkb "at least min_iters" true (Array.length run.iter_s >= 5);
  checki "every timed result checked" (Array.length run.iter_s) !timed

let test_ledger () =
  let l = Measure.Ledger.create () in
  let busy () = ignore (Sys.opaque_identity (List.init 10_000 Fun.id)) in
  Measure.Ledger.span l "root" (fun () ->
      busy ();
      Measure.Ledger.span l "a" busy;
      Measure.Ledger.span l "a" (fun () -> Measure.Ledger.span l "b" busy));
  (match Measure.Ledger.span l "c" (fun () -> failwith "boom") with
  | () -> Alcotest.fail "exception swallowed"
  | exception Failure _ -> ());
  List.iter
    (fun n -> checkb (n ^ " self time is non-negative") true (Measure.Ledger.self_s l n >= 0.))
    [ "root"; "a"; "b"; "c" ];
  checkb "a span that raised is still charged" true (Measure.Ledger.self_s l "c" > 0.);
  checkf "unopened span" 0. (Measure.Ledger.self_s l "none");
  checkf "self times add up to the total"
    (Measure.Ledger.total_s l)
    (List.fold_left (fun a n -> a +. Measure.Ledger.self_s l n) 0. [ "root"; "a"; "b"; "c" ])

(* ---- generator ---------------------------------------------------------- *)

let corners space =
  let bounds = Iter_space.bounds space in
  let n = Array.length bounds in
  List.init (1 lsl n) (fun mask ->
      Flo_linalg.Ivec.of_list
        (List.init n (fun k ->
             let lo, hi = bounds.(k) in
             if mask land (1 lsl k) = 0 then lo else hi)))

let test_gen_deterministic () =
  checkb "same seed, same programs" true (Gen.corpus ~seed:3 = Gen.corpus ~seed:3);
  checkb "different seeds, different programs" true (Gen.corpus ~seed:3 <> Gen.corpus ~seed:4);
  checki "corpus size" Gen.count (List.length (Gen.corpus ~seed:0))

let test_gen_shapes () =
  List.iter
    (fun seed ->
      List.iter
        (fun (p : Program.t) ->
          let arrays = List.length p.arrays and nests = List.length p.nests in
          checkb (p.name ^ " arrays in 4..24") true (arrays >= 4 && arrays <= 24);
          checkb (p.name ^ " nests in 2..8") true (nests >= 2 && nests <= 8);
          List.iter
            (fun (nest : Loop_nest.t) ->
              checkb "weight in 1..6" true (nest.weight >= 1 && nest.weight <= 6);
              List.iter
                (fun (r : Access.t) ->
                  (* affine maps reach their extremes at the box corners *)
                  let space = (Program.array_decl p (Access.array_id r)).space in
                  List.iter
                    (fun c ->
                      checkb (p.name ^ " access in bounds") true (Data_space.mem space (Access.eval r c)))
                    (corners nest.space))
                nest.refs)
            p.nests)
        (Gen.corpus ~seed))
    [ 0; 1; 2 ]

let test_gen_compiles () =
  let config = Flo_engine.Config.default in
  List.iter
    (fun seed ->
      List.iter
        (fun (p : Program.t) ->
          List.iter
            (fun scope ->
              match Optimizer.run ~scope ~spec:(Flo_engine.Config.spec_for config p) p with
              | plan -> checki (p.name ^ " one decision per array") (List.length p.arrays)
                          (Optimizer.total_arrays plan)
              | exception e -> Alcotest.failf "%s raised %s" p.name (Printexc.to_string e))
            Workloads.scopes)
        (Gen.corpus ~seed))
    [ 0; 1; 2 ]

(* ---- expected outputs --------------------------------------------------- *)

let test_expected_roundtrip () =
  let lines = [ ("a.b", "1.5"); ("verdict", "p99=3 ok VIOLATED"); ("empty", "") ] in
  checkb "render then parse" true (Expected.parse (Expected.render lines) = Ok lines);
  checkb "comments, blank lines and CRLF" true
    (Expected.parse "# header\n\nk v w\r\n" = Ok [ ("k", "v w") ])

let test_expected_errors () =
  let error text = match Expected.parse text with Error e -> e | Ok _ -> "accepted" in
  checks "no value" "line 2: expected KEY VALUE" (error "a 1\nb\n");
  checks "empty key" "line 1: expected KEY VALUE" (error " 1\n");
  checks "duplicate" "line 3: duplicate key a" (error "a 1\n# c\na 2\n")

let test_expected_diff () =
  let e = [ ("a", "1"); ("b", "2") ] in
  checkb "equal" true (Expected.diff ~expected:e e = None);
  checkb "value" true (Expected.diff ~expected:e [ ("a", "1"); ("b", "3") ] = Some "b: expected 2, got 3");
  checkb "missing" true (Expected.diff ~expected:e [ ("a", "1") ] = Some "missing b (expected 2)");
  checkb "extra" true
    (Expected.diff ~expected:e (e @ [ ("c", "4") ]) = Some "unexpected c 4")

let test_expected_files_parse () =
  List.iter
    (fun w ->
      let name = Workloads.name w in
      match List.assoc_opt name Expected_data.files with
      | None -> Alcotest.failf "no expected file for %s" name
      | Some text -> (
        match Expected.parse text with
        | Ok lines -> checkb (name ^ " has outputs") true (lines <> [])
        | Error msg -> Alcotest.failf "%s: %s" name msg))
    Workloads.all

(* ---- harness layers ----------------------------------------------------- *)

let test_replay_equals_run () =
  let config = Workloads.config in
  List.iter
    (fun name ->
      let app = Flo_workloads.Suite.find name in
      let layouts = Flo_engine.Experiment.inter_layouts config app in
      let mapping = Flo_engine.Experiment.random_mapping ~seed:5 config in
      let replayed =
        Workloads.replay (Measure.Ledger.create ()) (Workloads.counters ()) ~mapping ~sample:8 app ~layouts
      in
      checkb (name ^ ": replay = Run.run") true
        (replayed = Flo_engine.Run.run ~mapping ~sample:8 ~config ~layouts app))
    [ "swim"; "twer"; "qio" ]

let test_pass_steps_agree () =
  let programs =
    List.map (fun (a : Flo_workloads.App.t) -> a.program) Flo_workloads.Suite.all @ Gen.corpus ~seed:0
  in
  List.iter
    (fun scope ->
      let plans =
        List.map
          (fun p -> Optimizer.run ~scope ~spec:(Flo_engine.Config.spec_for Workloads.config p) p)
          programs
      in
      checkb ("Step I/II agree with the plan at scope " ^ Internode.scope_to_string scope) true
        (Workloads.core_violations plans = []))
    Workloads.scopes

let () =
  Alcotest.run "perf"
    [
      ( "measure",
        [
          Alcotest.test_case "quartiles match the exclusive method" `Quick test_quartiles;
          Alcotest.test_case "percentile needs ten samples beyond it" `Quick test_percentile_support;
          Alcotest.test_case "measure: set-ups, warmups, iterations" `Quick test_measure;
          Alcotest.test_case "ledger self times" `Quick test_ledger;
        ] );
      ( "gen",
        [
          Alcotest.test_case "seeded" `Quick test_gen_deterministic;
          Alcotest.test_case "shapes and in-bounds accesses" `Quick test_gen_shapes;
          Alcotest.test_case "the pass never raises" `Quick test_gen_compiles;
        ] );
      ( "expected",
        [
          Alcotest.test_case "round trip" `Quick test_expected_roundtrip;
          Alcotest.test_case "malformed lines" `Quick test_expected_errors;
          Alcotest.test_case "diff" `Quick test_expected_diff;
          Alcotest.test_case "shipped files parse" `Quick test_expected_files_parse;
        ] );
      ( "layers",
        [
          Alcotest.test_case "harness replay equals Run.run" `Quick test_replay_equals_run;
          Alcotest.test_case "pass steps agree with the plan" `Quick test_pass_steps_agree;
        ] );
    ]
