(* The machine-readable bench trajectory: manifest schema round-trip and
   validation, `flopt bench diff`'s regression gating, and the bench
   history.  The JSON codec itself is tested in test_obs.ml. *)

open Flo_engine
module B = Bench_schema
module J = Flo_obs.Json

let checkb = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* -- parser robustness ---------------------------------------------------- *)

(* the decoder-parameterised totality property lives with the codec's
   suite; the manifest and history readers run it here *)
let prop_parse_string_never_raises =
  Test_obs.prop_decoder_total "Bench_schema.parse_string" B.parse_string

let prop_history_parse_string_never_raises =
  Test_obs.prop_decoder_total "Bench_history.parse_string" Bench_history.parse_string

let test_parser_depth_limited () =
  (* a hostile "[[[[..." must come back as a structured error, not blow the
     stack; depths inside the cap still parse *)
  let deep n = String.make n '[' ^ "1" ^ String.make n ']' in
  (match B.parse_string (deep 100_000) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted 100k-deep nesting");
  (match J.parse (deep 100_000) with
  | exception J.Parse _ -> ()
  | _ -> Alcotest.fail "Json.parse accepted 100k-deep nesting");
  checkb "shallow nesting still parses" true
    (match J.parse (deep 20) with Arr _ -> true | _ -> false)

let fixture name =
  if Sys.file_exists (Filename.concat "data" name) then Filename.concat "data" name
  else Filename.concat "test/data" name

(* byte-identity gate: the checked-in baseline, loaded and printed back
   with the manifest printer, reproduces the file exactly *)
let test_baseline_reprints_byte_for_byte () =
  let path =
    if Sys.file_exists "../bench/baseline.json" then "../bench/baseline.json"
    else "bench/baseline.json"
  in
  let ic = open_in_bin path in
  let bytes = really_input_string ic (in_channel_length ic) in
  close_in ic;
  check_int "baseline size" 3239 (String.length bytes);
  match B.load path with
  | Ok m -> check_str "reprinted baseline" bytes (J.to_string (B.to_json m) ^ "\n")
  | Error e -> Alcotest.failf "baseline did not load: %s" e

let test_hostile_fixtures_load_to_errors () =
  List.iter
    (fun name ->
      match B.load (fixture name) with
      | Error e -> checkb (name ^ " has a message") true (String.length e > 0)
      | Ok _ -> Alcotest.failf "loaded %s as a valid manifest" name)
    [ "truncated_manifest.json"; "hostile_manifest.json" ]

(* -- manifest schema ------------------------------------------------------ *)

let metric ?(gated = true) app name value =
  { B.app; name; value; unit_ = "us"; gated }

let manifest metrics =
  B.make ~apps:[ "a"; "b" ] ~sample:1 ~block_elems:64 ~threads:64 metrics

let test_manifest_roundtrip () =
  let m =
    manifest [ metric "a" "elapsed_us.inter" 12.5; metric ~gated:false "a" "wall_ns" 3e9 ]
  in
  let path = Filename.temp_file "flopt_bench" ".json" in
  B.save path m;
  (match B.load path with
  | Ok m' -> checkb "roundtrip" true (m = m')
  | Error e -> Alcotest.failf "load failed: %s" e);
  Sys.remove path

let test_validate_rejects () =
  let dup = metric "a" "x" 1. in
  (match B.validate (manifest [ dup; dup ]) with
  | Error e -> checkb "duplicate" true (String.length e > 0)
  | Ok () -> Alcotest.fail "duplicate metric accepted");
  (match B.validate { (manifest []) with B.version = 99 } with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "future version accepted");
  (match B.validate (manifest [ metric "a" "x" Float.nan ]) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "NaN accepted")

let test_save_is_atomic () =
  (* a crash between open and rename must never corrupt an existing
     manifest: the data goes to path.tmp first *)
  let path = Filename.temp_file "flopt_bench" ".json" in
  let good = manifest [ metric "a" "x" 1. ] in
  B.save path good;
  (* stale garbage from a previous crashed writer is simply overwritten *)
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc "{ truncated garb";
  close_out oc;
  let better = manifest [ metric "a" "x" 2. ] in
  B.save path better;
  (match B.load path with
  | Ok m -> checkb "new manifest replaces old" true (m = better)
  | Error e -> Alcotest.failf "load after save: %s" e);
  checkb "tmp file consumed by rename" false (Sys.file_exists tmp);
  (* a save that cannot even create its temp file raises and leaves the
     published manifest untouched *)
  Unix.mkdir tmp 0o755;
  (match B.save path good with
  | () -> Alcotest.fail "save into blocked tmp path succeeded"
  | exception Sys_error _ -> ());
  (match B.load path with
  | Ok m -> checkb "failed save left manifest intact" true (m = better)
  | Error e -> Alcotest.failf "manifest corrupted by failed save: %s" e);
  Unix.rmdir tmp;
  Sys.remove path

(* manifests decode through the shared codec: escapes become UTF-8 and a
   count must be integral *)
let test_manifest_decodes_through_codec () =
  let doc ~app ~sample =
    Printf.sprintf
      {|{"schema":"flopt-bench","version":1,"config":{"apps":["%s"],"sample":%s,"block_elems":64,"threads":64},"metrics":[]}|}
      app sample
  in
  (match B.parse_string (doc ~app:{|\u4e2d\u00e9|} ~sample:"8") with
  | Ok m -> checkb "escaped app name" true (m.B.apps = [ "\xe4\xb8\xad\xc3\xa9" ])
  | Error e -> Alcotest.failf "manifest rejected: %s" e);
  match B.parse_string (doc ~app:"a" ~sample:"8.5") with
  | Error e -> checkb "names the field" true (String.length e > 0)
  | Ok m -> Alcotest.failf "sample 8.5 loaded as %d" m.B.sample

let test_load_reports_errors () =
  (match B.load "/nonexistent/bench.json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file loaded");
  let path = Filename.temp_file "flopt_bench" ".json" in
  let oc = open_out path in
  output_string oc "{\"schema\":\"other\",\"version\":1}";
  close_out oc;
  (match B.load path with
  | Error e -> checkb "names wrong schema" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "wrong schema loaded");
  Sys.remove path

(* -- diffing and gating ---------------------------------------------------- *)

let test_self_diff_clean () =
  let m = manifest [ metric "a" "x" 10.; metric "a" "y" 0. ] in
  let d = B.diff ~old_:m ~new_:m in
  check_int "changes" 2 (List.length d.B.changes);
  check_int "regressions" 0 (List.length (B.regressions d));
  check_int "improvements" 0 (List.length (B.improvements d));
  checkb "nothing added/removed" true (d.B.added = [] && d.B.removed = [])

let test_injected_slowdown_regresses () =
  let old_ = manifest [ metric "a" "elapsed_us.inter" 100.; metric "a" "m" 5. ] in
  let new_ = manifest [ metric "a" "elapsed_us.inter" 200.; metric "a" "m" 5. ] in
  let d = B.diff ~old_ ~new_ in
  let r = B.regressions ~threshold:25. d in
  check_int "one regression" 1 (List.length r);
  let c = List.hd r in
  check_str "which" "elapsed_us.inter" c.B.c_name;
  Alcotest.(check (float 1e-9)) "plus 100%" 100. c.B.delta_pct

let test_threshold_masks_small_changes () =
  let old_ = manifest [ metric "a" "x" 100. ] in
  let new_ = manifest [ metric "a" "x" 110. ] in
  let d = B.diff ~old_ ~new_ in
  check_int "gated at 0%" 1 (List.length (B.regressions d));
  check_int "masked at 25%" 0 (List.length (B.regressions ~threshold:25. d))

let test_ungated_never_gates () =
  let old_ = manifest [ metric ~gated:false "a" "wall_ns" 100. ] in
  let new_ = manifest [ metric ~gated:false "a" "wall_ns" 1000. ] in
  let d = B.diff ~old_ ~new_ in
  check_int "wall time ignored" 0 (List.length (B.regressions d))

let test_zero_baseline_special_case () =
  (* a cost that was 0 and became nonzero is an infinite-percent regression,
     not a divide-by-zero *)
  let old_ = manifest [ metric "a" "drift" 0. ] in
  let new_ = manifest [ metric "a" "drift" 1. ] in
  let d = B.diff ~old_ ~new_ in
  let r = B.regressions ~threshold:1000. d in
  check_int "still regressed" 1 (List.length r);
  checkb "infinite" true ((List.hd r).B.delta_pct = infinity)

(* a gated metric that disappears fails the gate; an ungated one does not *)
let test_missing_gated_regresses () =
  let old_ =
    manifest
      [
        metric "a" "elapsed_us.inter" 1.;
        metric "a" "x" 2.;
        metric ~gated:false "a" "wall" 3.;
      ]
  in
  let new_ = manifest [ metric "a" "x" 2. ] in
  let d = B.diff ~old_ ~new_ in
  check_int "no changed metric regressed" 0 (List.length (B.regressions d));
  check_int "both removals listed" 2 (List.length d.B.removed);
  (match B.missing_gated d with
  | [ m ] -> check_str "the gated one" "elapsed_us.inter" m.B.name
  | ms -> Alcotest.failf "%d missing gated metrics, want 1" (List.length ms));
  let kept = manifest [ metric "a" "elapsed_us.inter" 1.; metric "a" "x" 2. ] in
  check_int "ungated removal is informational" 0
    (List.length (B.missing_gated (B.diff ~old_ ~new_:kept)))

let test_added_removed () =
  let old_ = manifest [ metric "a" "x" 1.; metric "a" "gone" 2. ] in
  let new_ = manifest [ metric "a" "x" 1.; metric "a" "fresh" 3. ] in
  let d = B.diff ~old_ ~new_ in
  check_int "added" 1 (List.length d.B.added);
  check_int "removed" 1 (List.length d.B.removed);
  check_str "added name" "fresh" (List.hd d.B.added).B.name;
  check_str "removed name" "gone" (List.hd d.B.removed).B.name

let prop_self_diff_never_regresses =
  QCheck.Test.make ~count:200 ~name:"self-diff has no regressions"
    QCheck.(small_list (pair (int_bound 1000) bool))
    (fun cells ->
      let metrics =
        List.mapi
          (fun i (v, gated) -> metric ~gated "a" (Printf.sprintf "m%d" i) (float_of_int v))
          cells
      in
      let m = manifest metrics in
      let d = B.diff ~old_:m ~new_:m in
      B.regressions d = [] && B.improvements d = [])

(* -- bench history --------------------------------------------------------- *)

module H = Bench_history

let pt name value = { H.name; value; unit_ = "x" }

let history_of rows =
  List.fold_left
    (fun h (commit, points) ->
      match H.upsert h ~commit points with
      | Ok h -> h
      | Error e -> Alcotest.failf "upsert %s: %s" commit e)
    H.empty rows

let test_history_valid_commit () =
  List.iter
    (fun c -> checkb c true (H.valid_commit c))
    [ "a"; "abc123"; "v1.2.3-rc1"; "deadbeef"; String.make 64 'f' ];
  List.iter
    (fun c -> checkb (String.escaped c) false (H.valid_commit c))
    [ ""; "a b"; "a/b"; "a\nb"; "\x00"; String.make 65 'f'; "caf\xc3\xa9" ]

let test_history_upsert_appends_and_replaces () =
  let h = history_of [ ("c1", [ pt "m" 1. ]); ("c2", [ pt "m" 2. ]) ] in
  check_int "two rows" 2 (List.length h.H.rows);
  (* re-recording c1 replaces in place: order stays c1, c2 *)
  let h' = history_of [ ("c1", [ pt "m" 9. ]); ("c2", [ pt "m" 2. ]) ] in
  let h'' =
    match H.upsert h ~commit:"c1" [ pt "m" 9. ] with
    | Ok h -> h
    | Error e -> Alcotest.failf "re-upsert: %s" e
  in
  checkb "replace preserves position" true (h' = h'');
  check_str "first row still c1" "c1" (List.hd h''.H.rows).H.commit

let test_history_upsert_rejects () =
  List.iter
    (fun (label, commit, points) ->
      match H.upsert H.empty ~commit points with
      | Error e -> checkb (label ^ " has message") true (String.length e > 0)
      | Ok _ -> Alcotest.failf "%s accepted" label)
    [
      ("bad commit", "a b", [ pt "m" 1. ]);
      ("empty points", "c1", []);
      ("duplicate point name", "c1", [ pt "m" 1.; pt "m" 2. ]);
      ("nan value", "c1", [ pt "m" Float.nan ]);
      ("infinite value", "c1", [ pt "m" Float.infinity ]);
    ]

let test_history_idempotent_roundtrip () =
  (* same inputs -> byte-equal file, and re-recording a commit from the
     same points leaves the saved history byte-identical *)
  let h =
    history_of
      [
        ("c1", [ pt "rps" 100.; pt "wall" 2. ]);
        ("c2", [ pt "rps" 120.; pt "wall" 1.9 ]);
      ]
  in
  let path = Filename.temp_file "flopt_hist" ".json" in
  H.save path h;
  let read_all p =
    let ic = open_in_bin p in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let first = read_all path in
  (match H.upsert h ~commit:"c2" [ pt "rps" 120.; pt "wall" 1.9 ] with
  | Ok h' -> H.save path h'
  | Error e -> Alcotest.failf "re-record: %s" e);
  check_str "idempotent re-record" first (read_all path);
  (match H.load path with
  | Ok h' -> checkb "load inverts save" true (h = h')
  | Error e -> Alcotest.failf "load: %s" e);
  Sys.remove path

let test_history_series_has_gaps () =
  let h =
    history_of
      [
        ("c1", [ pt "rps" 1. ]);
        ("c2", [ pt "wall" 2. ]);
        ("c3", [ pt "rps" 3. ]);
      ]
  in
  checkb "gap row skipped, not zeroed" true
    (H.series h "rps" = [ ("c1", 1.); ("c3", 3.) ]);
  checkb "absent series empty" true (H.series h "nope" = [])

let test_history_parse_rejects_corrupt () =
  List.iter
    (fun (label, s) ->
      match H.parse_string s with
      | Error e -> checkb (label ^ " has message") true (String.length e > 0)
      | Ok _ -> Alcotest.failf "%s accepted" label)
    [
      ("garbage", "{ not json");
      ("wrong schema", "{\"schema\":\"flopt-bench\",\"version\":1,\"rows\":[]}");
      ( "future version",
        "{\"schema\":\"flopt-bench-history\",\"version\":99,\"rows\":[]}" );
      ( "bad commit id",
        "{\"schema\":\"flopt-bench-history\",\"version\":1,\"rows\":[{\"commit\":\"a b\",\"points\":[{\"name\":\"m\",\"value\":1,\"unit\":\"x\"}]}]}"
      );
      ( "duplicate commit",
        "{\"schema\":\"flopt-bench-history\",\"version\":1,\"rows\":[{\"commit\":\"c\",\"points\":[{\"name\":\"m\",\"value\":1,\"unit\":\"x\"}]},{\"commit\":\"c\",\"points\":[{\"name\":\"m\",\"value\":2,\"unit\":\"x\"}]}]}"
      );
    ]

let test_history_metrics_of_manifest () =
  let m =
    manifest
      [
        metric "a" "elapsed_us.default" 200.;
        metric "a" "elapsed_us.inter" 100.;
        metric "b" "elapsed_us.default" 50.;
        metric "b" "elapsed_us.inter" 50.;
        { B.app = "_slo"; name = "fleet_burn_rate"; value = 0.25;
          unit_ = "x"; gated = false };
        { B.app = "_overload"; name = "goodput_rps"; value = 4321.;
          unit_ = "req/s"; gated = false };
      ]
  in
  let points = H.metrics_of_manifest m in
  let value name =
    match List.find_opt (fun p -> p.H.name = name) points with
    | Some p -> p.H.value
    | None -> Alcotest.failf "missing point %s" name
  in
  (* inter/default ratios 0.5 and 1.0: mean 0.75, a 25% gain *)
  checkb "layout gain" true (Float.abs (value "layout_gain_pct" -. 25.) < 1e-9);
  checkb "slo burn" true (value "slo_burn_rate" = 0.25);
  checkb "overload goodput" true (value "overload_goodput_rps" = 4321.);
  (* an old manifest's wall-clock metrics, and an unpaired or ungated
     elapsed time, yield nothing *)
  let old_walls =
    manifest
      [
        metric "a" "elapsed_us.inter" 1.;
        metric ~gated:false "b" "elapsed_us.default" 2.;
        metric "b" "elapsed_us.inter" 1.;
        metric ~gated:false "a" "tracegen_elems_per_sec.inter" 100.;
        { B.app = "_suite"; name = "suite_wall_s.seq"; value = 3.5;
          unit_ = "s"; gated = false };
        { B.app = "_traffic"; name = "modeled_rps"; value = 1234.;
          unit_ = "req/s"; gated = false };
      ]
  in
  checkb "no point from wall metrics" true (H.metrics_of_manifest old_walls = []);
  (* the checked-in baseline: cc-ver-1 gains nothing, wupwise 29% *)
  let baseline =
    if Sys.file_exists "../bench/baseline.json" then "../bench/baseline.json"
    else "bench/baseline.json"
  in
  match B.load baseline with
  | Error e -> Alcotest.failf "baseline did not load: %s" e
  | Ok b -> (
    match List.find_opt (fun p -> p.H.name = "layout_gain_pct") (H.metrics_of_manifest b) with
    | Some p -> checkb "baseline gain 14.5%" true (Float.abs (p.H.value -. 14.53) < 0.01)
    | None -> Alcotest.fail "baseline yields no layout gain")

let test_history_page_deterministic () =
  let h =
    history_of
      [
        ("c1", [ pt "layout_gain_pct" 14.5; pt "slo_burn_rate" 37.5 ]);
        ("c2", [ pt "layout_gain_pct" 15.1; pt "slo_burn_rate" 25. ]);
        ("c3", [ pt "layout_gain_pct" 15.0 ]);
      ]
  in
  let page = H.render_page h in
  check_str "byte-equal on re-render" page (H.render_page h);
  let count needle =
    let n = String.length needle and l = String.length page in
    let rec go i acc =
      if i + n > l then acc
      else go (i + 1) (if String.sub page i n = needle then acc + 1 else acc)
    in
    go 0 0
  in
  let contains needle = count needle > 0 in
  checkb "no javascript" false (contains "<script");
  check_int "one chart per series" 2 (count "<svg");
  checkb "commits appear" true (contains "c1" && contains "c3");
  checkb "table view present" true (contains "<table");
  checkb "dark mode selected" true (contains "prefers-color-scheme")

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_parse_string_never_raises; prop_history_parse_string_never_raises;
      prop_self_diff_never_regresses;
    ]

let suite =
  [
    ("parser depth limited", `Quick, test_parser_depth_limited);
    ("hostile fixtures load to errors", `Quick, test_hostile_fixtures_load_to_errors);
    ("baseline reprints byte for byte", `Quick, test_baseline_reprints_byte_for_byte);
    ("manifest roundtrip", `Quick, test_manifest_roundtrip);
    ("validate rejects bad manifests", `Quick, test_validate_rejects);
    ("save is atomic", `Quick, test_save_is_atomic);
    ("load reports errors", `Quick, test_load_reports_errors);
    ("manifest decodes through the codec", `Quick, test_manifest_decodes_through_codec);
    ("self-diff is clean", `Quick, test_self_diff_clean);
    ("injected 2x slowdown regresses", `Quick, test_injected_slowdown_regresses);
    ("threshold masks small changes", `Quick, test_threshold_masks_small_changes);
    ("ungated metrics never gate", `Quick, test_ungated_never_gates);
    ("zero-baseline special case", `Quick, test_zero_baseline_special_case);
    ("added/removed metrics", `Quick, test_added_removed);
    ("missing gated metric regresses", `Quick, test_missing_gated_regresses);
    ("history commit-id validation", `Quick, test_history_valid_commit);
    ("history upsert appends/replaces", `Quick, test_history_upsert_appends_and_replaces);
    ("history upsert rejects bad rows", `Quick, test_history_upsert_rejects);
    ("history record is idempotent", `Quick, test_history_idempotent_roundtrip);
    ("history series keeps gaps", `Quick, test_history_series_has_gaps);
    ("history rejects corrupt files", `Quick, test_history_parse_rejects_corrupt);
    ("history distills manifests", `Quick, test_history_metrics_of_manifest);
    ("history page is deterministic", `Quick, test_history_page_deterministic);
  ]
  @ qsuite
