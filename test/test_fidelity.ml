(* Model-fidelity telemetry: the compiler-side predictions (Predict) joined
   against observed run analytics (Fidelity), and their rendering.

   The headline guarantees pinned here:
   - under matching run parameters the analytical model is EXACT — all 16
     apps under the inter-node layout show zero drift (golden file);
   - a deliberately mis-parameterized model (wrong block size) produces
     nonzero, flagged drift (golden file). *)

open Flo_workloads
open Flo_engine
module F = Flo_fidelity.Fidelity
module P = Flo_fidelity.Predict

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let config = Config.default

let fidelity_of ?tolerance ?predict_block_elems ?sample app =
  fst
    (Experiment.fidelity ?tolerance ?predict_block_elems ?sample
       ~layouts:(Experiment.inter_layouts config app)
       config app)

let read_golden path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let check_golden path actual =
  (* regenerate with: FLOPT_GOLDEN_UPDATE=$PWD/test dune exec test/main.exe -- test fidelity -q *)
  match Sys.getenv_opt "FLOPT_GOLDEN_UPDATE" with
  | Some dir ->
    let oc = open_out_bin (Filename.concat dir path) in
    output_string oc actual;
    close_out oc
  | None -> Alcotest.(check string) "matches golden file" (read_golden path) actual

(* every app of the suite, inter-node layout, default config: the model must
   reproduce the run exactly — drift 0 everywhere *)
let test_suite_zero_drift_golden () =
  let lines =
    List.map
      (fun app ->
        let fd = fidelity_of app in
        checkb (app.App.name ^ " ok") true (F.ok fd);
        check (app.App.name ^ " max abs drift") 0 (F.max_abs_drift fd);
        Report.fidelity_line fd)
      Suite.all
  in
  check_golden "golden_fidelity_suite.expected"
    (String.concat "\n" lines ^ "\n")

(* predictions made for 32-element blocks against a 64-element-block run:
   every row must drift and be flagged at zero tolerance *)
let test_block_mismatch_golden () =
  let app = Suite.find "cc-ver-1" in
  let fd = fidelity_of ~predict_block_elems:32 app in
  checkb "not ok" false (F.ok fd);
  checkb "has flagged rows" true (F.flagged fd <> []);
  checkb "nonzero drift" true (F.max_abs_drift fd > 0);
  check_golden "golden_fidelity_mismatch.expected" (Report.fidelity_summary fd)

let test_sampled_run_still_exact () =
  let fd = fidelity_of ~sample:8 (Suite.find "wupwise") in
  checkb "ok under sampling" true (F.ok fd);
  check "max abs drift" 0 (F.max_abs_drift fd)

let test_default_layout_also_exact () =
  (* the model is layout-generic: row-major predictions match too *)
  let app = Suite.find "astro" in
  let fd, _ =
    Experiment.fidelity ~layouts:(Experiment.default_layouts app) config app
  in
  checkb "ok" true (F.ok fd);
  check "max abs drift" 0 (F.max_abs_drift fd)

let test_tolerance_masks_drift () =
  let app = Suite.find "cc-ver-1" in
  let strict = fidelity_of ~predict_block_elems:32 app in
  let lax = fidelity_of ~tolerance:0.6 ~predict_block_elems:32 app in
  checkb "strict flags" true (F.flagged strict <> []);
  (* the 32-vs-64 mismatch doubles block counts: 50% relative error < 60% *)
  check "lax flags none" 0 (List.length (F.flagged lax));
  checkb "same drift either way" true
    (F.max_abs_drift strict = F.max_abs_drift lax)

let test_predict_layer_expectations () =
  let app = Suite.find "cc-ver-1" in
  let fd = fidelity_of app in
  let p = fd.F.predict in
  checkb "arrays predicted" true (p.P.arrays <> []);
  List.iter
    (fun (ap : P.array_prediction) ->
      checkb (ap.P.array_name ^ " optimized") true ap.P.optimized;
      checkb (ap.P.array_name ^ " block aligned") true ap.P.block_aligned;
      checkb (ap.P.array_name ^ " has layers") true (ap.P.layers <> []);
      List.iter
        (fun (l : P.layer_expect) ->
          checkb "capacity positive" true (l.P.capacity > 0);
          checkb "sharing positive" true (l.P.threads_sharing > 0);
          check "whole blocks" 0 (l.P.capacity mod p.P.block_elems))
        ap.P.layers)
    p.P.arrays;
  (* Step II claim: the inter-node layout leaves no block with two owners *)
  checkb "single owner" true p.P.single_owner;
  check "cross shared" 0 p.P.cross_shared_blocks

let test_predict_validates_args () =
  let app = Suite.find "cc-ver-1" in
  let layouts = Experiment.inter_layouts config app in
  Alcotest.check_raises "sample 0"
    (Invalid_argument "Predict.compute: sample < 1") (fun () ->
      ignore
        (P.compute ~sample:0 ~block_elems:64 ~threads:4 ~name:"x" ~layouts
           app.App.program));
  let fd = fidelity_of app in
  let join tolerance =
    ignore (F.join ~tolerance ~predict:fd.F.predict ~observed:(Flo_analysis.Analyzer.create ()) ())
  in
  Alcotest.check_raises "negative tolerance"
    (Invalid_argument "Fidelity.join: negative tolerance") (fun () -> join (-0.1));
  (* NaN compares false against everything: it must not pass as >= 0 *)
  List.iter
    (fun t ->
      Alcotest.check_raises (Printf.sprintf "tolerance %g" t)
        (Invalid_argument "Fidelity.join: non-finite tolerance") (fun () -> join t))
    [ Float.nan; Float.infinity ]

(* Predict is pinned to the retained naive generator: a thread's collapsed
   reference stream holds exactly the set of blocks the thread touches, so
   the per-thread block sets give the (thread, file) distinct counts and
   the block degrees give the sharing counts *)
let check_predict_against_reference ?(sample = 1) ?block_elems ~mode ~layouts
    (app : App.t) =
  let module B = Flo_storage.Block in
  let block_elems =
    Option.value block_elems ~default:config.Config.topology.Flo_storage.Topology.block_elems
  in
  let threads = Config.threads config in
  let blocks_per_thread = config.Config.blocks_per_thread in
  let sets = Array.make threads B.Set.empty in
  List.iter
    (fun nest ->
      Array.iteri
        (fun th stream -> sets.(th) <- Array.fold_right B.Set.add stream sets.(th))
        (Tracegen.reference_streams ~layouts ~block_elems ~threads ~blocks_per_thread
           ~sample nest))
    app.App.program.Flo_poly.Program.nests;
  let distinct =
    List.concat
      (List.init threads (fun th ->
           B.Set.fold
             (fun b acc ->
               match acc with
               | ((t, f), n) :: rest when t = th && f = B.file b -> ((t, f), n + 1) :: rest
               | _ -> ((th, B.file b), 1) :: acc)
             sets.(th) []
           |> List.rev))
  in
  let degrees = B.Tbl.create 4096 in
  Array.iter
    (B.Set.iter (fun b ->
         B.Tbl.replace degrees b (1 + Option.value ~default:0 (B.Tbl.find_opt degrees b))))
    sets;
  let count f = B.Tbl.fold (fun _ k acc -> acc + f k) degrees 0 in
  let p =
    P.compute ~blocks_per_thread ~sample ~block_elems ~threads ~name:app.App.name ~layouts
      app.App.program
  in
  let label what = Printf.sprintf "%s %s sample %d: %s" app.App.name mode sample what in
  Alcotest.(check (list (pair (pair int int) int))) (label "distinct") distinct p.P.distinct;
  check (label "cross shared") (count (fun k -> if k >= 2 then 1 else 0))
    p.P.cross_shared_blocks;
  check (label "cross pairs") (count (fun k -> k * (k - 1) / 2)) p.P.cross_pairs;
  check (label "distinct blocks") (B.Tbl.length degrees) p.P.distinct_blocks;
  checkb (label "single owner") (p.P.cross_shared_blocks = 0) p.P.single_owner

let test_predict_matches_reference () =
  List.iter
    (fun app ->
      check_predict_against_reference ~sample:8 ~mode:"default"
        ~layouts:(Experiment.default_layouts app) app;
      check_predict_against_reference ~sample:8 ~mode:"inter"
        ~layouts:(Experiment.inter_layouts config app) app)
    Suite.all;
  List.iter
    (fun name ->
      let app = Suite.find name in
      check_predict_against_reference ~mode:"inter"
        ~layouts:(Experiment.inter_layouts config app) app)
    [ "cc-ver-1"; "wupwise" ];
  let app = Suite.find "cc-ver-1" in
  check_predict_against_reference ~block_elems:32 ~mode:"inter, 32-element blocks"
    ~layouts:(Experiment.inter_layouts config app) app

(* drift arithmetic on synthetic rows *)
let test_row_drift_arithmetic () =
  let row predicted observed = { F.thread = 0; file = 0; predicted; observed } in
  check "abs" 3 (F.abs_drift (row 10 13));
  Alcotest.(check (float 1e-9)) "rel" 0.3 (F.rel_drift (row 10 13));
  Alcotest.(check (float 0.)) "both zero" 0. (F.rel_drift (row 0 0));
  checkb "zero prediction, nonzero observation" true
    (F.rel_drift (row 0 5) = infinity)

(* flagging is monotone in tolerance: anything flagged at a higher tolerance
   is flagged at every lower one *)
let prop_flagged_monotone =
  QCheck.Test.make ~count:200 ~name:"fidelity flagged monotone in tolerance"
    QCheck.(
      triple
        (small_list (pair (int_bound 50) (int_bound 50)))
        (float_bound_inclusive 1.) (float_bound_inclusive 1.))
    (fun (cells, t1, t2) ->
      let lo = Float.min t1 t2 and hi = Float.max t1 t2 in
      let rows =
        List.mapi
          (fun i (p, o) -> { F.thread = i; file = 0; predicted = p; observed = o })
          cells
      in
      let flagged tol =
        List.filter (fun r -> F.rel_drift r > tol) rows
      in
      List.for_all (fun r -> List.memq r (flagged lo)) (flagged hi))

(* -- layout drift watch ---------------------------------------------------- *)

module D = Flo_fidelity.Drift

let base_signal =
  {
    D.miss_l1 = 0.05;
    miss_l2 = 0.02;
    cross_shared = 4;
    sharing = [ (0, 1, 2); (1, 0, 2) ];
    fidelity_rel = 0.;
  }

let shifted_signal =
  { base_signal with D.miss_l1 = 0.2; miss_l2 = 0.09; cross_shared = 11 }

let observe_n d s n =
  let r = ref d in
  for _ = 1 to n do
    r := D.observe !r s
  done;
  !r

let test_drift_quiet_on_identical () =
  let d = observe_n (D.create ~baseline:base_signal ()) base_signal 6 in
  Alcotest.(check int) "windows" 6 (D.windows_seen d);
  checkb "no recommendation" false (D.recommended d);
  checkb "no reasons" true (D.reasons d = []);
  Alcotest.(check (float 0.)) "score zero" 0. (D.last_score d);
  checkb "status says no" true
    (let s = D.status_line d in
     String.length s > 0
     &&
     let rec contains i =
       i + 12 <= String.length s
       && (String.sub s i 12 = "recommend=no" || contains (i + 1))
     in
     contains 0)

let test_drift_flags_after_streak () =
  let d0 = D.create ~baseline:base_signal () in
  let score, reasons = D.score d0 shifted_signal in
  checkb "window scores above enter" true (score >= D.default_config.D.enter);
  checkb "reasons name components" true (reasons <> []);
  let d1 = D.observe d0 shifted_signal in
  checkb "one high window is not enough" false (D.recommended d1);
  let d2 = D.observe d1 shifted_signal in
  checkb "streak of 2 raises" true (D.recommended d2);
  checkb "reasons attached on flip" true (D.reasons d2 <> [])

let test_drift_hysteresis () =
  let on =
    observe_n (D.create ~baseline:base_signal ()) shifted_signal
      D.default_config.D.streak
  in
  checkb "raised" true (D.recommended on);
  let low1 = D.observe on base_signal in
  checkb "one quiet window does not clear" true (D.recommended low1);
  let low2 = D.observe low1 base_signal in
  checkb "streak of 2 clears" false (D.recommended low2);
  checkb "reasons cleared" true (D.reasons low2 = []);
  (* alternating noise never accumulates a streak in either direction *)
  let d = ref (D.create ~baseline:base_signal ()) in
  for _ = 1 to 4 do
    d := D.observe (D.observe !d shifted_signal) base_signal
  done;
  checkb "alternating windows never raise" false (D.recommended !d)

let test_drift_matrix_zero_padding () =
  (* a cell listed with a zero count is the same observation as an absent
     one — no matrix component fires *)
  let padded = { base_signal with D.sharing = base_signal.D.sharing @ [ (2, 2, 0) ] } in
  let d = D.create ~baseline:base_signal () in
  let score, reasons = D.score d padded in
  Alcotest.(check (float 0.)) "padded matrix scores zero" 0. score;
  checkb "no reasons" true (reasons = []);
  (* genuinely moved sharing mass fires the matrix component *)
  let moved = { base_signal with D.sharing = [ (1, 1, 4) ] } in
  let _, reasons = D.score d moved in
  checkb "matrix shift named" true
    (List.exists (function D.Matrix_shift _ -> true | _ -> false) reasons)

(* the signal's sharing cells: L2 only, summed over the storage-node caches,
   sized by the threads present — ids 0 and 65535 give four cells *)
let test_drift_sharing_wide_ids () =
  let event ~layer ~node ~thread ~block =
    Flo_obs.Event.make ~time_us:0. ~kind:Flo_obs.Event.Hit ~layer ~node ~thread ~file:0
      ~block ()
  in
  let a =
    Flo_analysis.Analyzer.of_events
      [
        event ~layer:Flo_obs.Event.L2 ~node:0 ~thread:0 ~block:0;
        event ~layer:Flo_obs.Event.L2 ~node:0 ~thread:65535 ~block:0;
        event ~layer:Flo_obs.Event.L2 ~node:3 ~thread:65535 ~block:1;
        event ~layer:Flo_obs.Event.L2 ~node:3 ~thread:0 ~block:1;
        event ~layer:Flo_obs.Event.L2 ~node:3 ~thread:0 ~block:2;
        (* L1 sharing is not part of the signal *)
        event ~layer:Flo_obs.Event.L1 ~node:0 ~thread:7 ~block:0;
        event ~layer:Flo_obs.Event.L1 ~node:0 ~thread:65535 ~block:0;
      ]
  in
  Alcotest.(check (list (triple int int int))) "sparse cells"
    [ (0, 0, 3); (0, 65535, 2); (65535, 0, 2); (65535, 65535, 2) ]
    (D.sharing_of a)

let test_drift_config_validation () =
  let bad =
    [
      ("exit above enter", { D.default_config with D.exit_ = 0.5 });
      ("negative exit", { D.default_config with D.exit_ = -0.1 });
      ("zero streak", { D.default_config with D.streak = 0 });
    ]
  in
  List.iter
    (fun (label, c) ->
      checkb label true (Result.is_error (D.validate_config c));
      checkb (label ^ " raises on create") true
        (match D.create ~config:c ~baseline:base_signal () with
        | _ -> false
        | exception Invalid_argument _ -> true))
    bad;
  checkb "default config valid" true
    (Result.is_ok (D.validate_config D.default_config))

let test_drift_signal_phase_shift () =
  (* the synthetic phase shift: the baseline was captured under the
     optimized layouts; the same program running under default layouts is
     a workload the layouts no longer fit, and must score above enter *)
  let app = Suite.find "mgrid" in
  let baseline =
    Experiment.drift_signal ~layouts:(Experiment.inter_layouts config app)
      config app
  in
  let observed =
    Experiment.drift_signal ~layouts:(Experiment.default_layouts app) config app
  in
  let d = D.create ~baseline () in
  let unshifted, none = D.score d baseline in
  Alcotest.(check (float 0.)) "unshifted window scores zero" 0. unshifted;
  checkb "unshifted has no reasons" true (none = []);
  let shifted, reasons = D.score d observed in
  checkb "shifted window scores above enter" true
    (shifted >= D.default_config.D.enter);
  checkb "shifted names at least one component" true (reasons <> []);
  checkb "reason lines render" true
    (List.for_all (fun r -> String.length (D.reason_to_string r) > 0) reasons)

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_flagged_monotone ]

let suite =
  [
    ("16-app suite: zero drift under inter (golden)", `Quick, test_suite_zero_drift_golden);
    ("block-size mismatch drifts and flags (golden)", `Quick, test_block_mismatch_golden);
    ("sampled run stays exact", `Quick, test_sampled_run_still_exact);
    ("default layout also exact", `Quick, test_default_layout_also_exact);
    ("tolerance masks flagging, not drift", `Quick, test_tolerance_masks_drift);
    ("Step II layer expectations", `Quick, test_predict_layer_expectations);
    ("argument validation", `Quick, test_predict_validates_args);
    ("Predict matches reference_streams", `Slow, test_predict_matches_reference);
    ("row drift arithmetic", `Quick, test_row_drift_arithmetic);
    ("drift watch: quiet on identical windows", `Quick, test_drift_quiet_on_identical);
    ("drift watch: flags after enter streak", `Quick, test_drift_flags_after_streak);
    ("drift watch: hysteresis", `Quick, test_drift_hysteresis);
    ("drift watch: matrix zero-padding", `Quick, test_drift_matrix_zero_padding);
    ("drift watch: sharing cells over ids 0 and 65535", `Quick, test_drift_sharing_wide_ids);
    ("drift watch: config validation", `Quick, test_drift_config_validation);
    ("drift watch: phase shift recommends re-layout", `Quick, test_drift_signal_phase_shift);
  ]
  @ qsuite
