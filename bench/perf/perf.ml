(* bench/perf: the repeatable five-workload benchmark of flopt.

     perf.exe run --workload W --seed N [--seconds S] [--trace 0|1] [--out FILE]
       One workload in this process.  [--trace 0] measures the end-to-end
       metrics; [--trace 1] is the traced run that attributes time to
       layers.  Prints every metric as [name value unit], then one JSON
       summary line; [--out] also writes the full report (quartiles, n,
       bounds, host facts) as JSON.
     perf.exe all --seed N --out FILE [--seconds S] [--traced]
       Every workload, each in a fresh child process; FILE gathers their
       reports.
     perf.exe expect WORKLOAD
       Print the workload's seed-0 modeled outputs in the format of
       bench/perf/expected/WORKLOAD.txt.

   Exit status 0 when every output check passed, 1 when one failed, 2 on
   bad arguments. *)

open Perf_kit

let fail_usage fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perf: " ^ msg);
      exit 2)
    fmt

(* ---- JSON output -------------------------------------------------------- *)

let json_str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* every value is finite: rates and ratios guard their denominators *)
let json_num x = Printf.sprintf "%.17g" x
let json_obj fields = "{" ^ String.concat ", " (List.map (fun (k, v) -> json_str k ^ ": " ^ v) fields) ^ "}"
let json_list items = "[" ^ String.concat ", " items ^ "]"

(* ---- host facts --------------------------------------------------------- *)

let host_json ~seed =
  json_obj
    [
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", json_str Sys.ocaml_version); ("profile", json_str Build_info.profile);
      ("seed", string_of_int seed);
    ]

(* VmHWM: the peak resident set of this process *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> failwith "no VmHWM in /proc/self/status"
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> find ()
      in
      find ())

(* ---- reports ------------------------------------------------------------ *)

type metric = {
  name : string;
  value : float;
  unit_ : string;
  summary : Measure.summary option;  (** samples behind a median *)
  bound : float option;  (** share of the parent's median it may worsen by *)
}

let metric ?summary ?bound name value unit_ = { name; value; unit_; summary; bound }

let of_samples ?bound name unit_ samples =
  let s = Measure.summarize samples in
  metric ~summary:s ?bound name s.median unit_

type report = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** newest first *)
}

let fail report ~ops msg =
  report.failed <- report.failed + ops;
  if not (List.mem msg report.problems) then report.problems <- msg :: report.problems

let correct r = r.failed = 0 && r.problems = []

let print_metrics metrics =
  List.iter
    (fun m ->
      Printf.printf "%s %.6g %s\n" m.name m.value m.unit_;
      match m.summary with
      | Some s ->
        Printf.printf "%s.q1 %.6g %s\n%s.q3 %.6g %s\n%s.n %d count\n" m.name s.q1 m.unit_ m.name
          s.q3 m.unit_ m.name s.n
      | None -> ())
    metrics

(* the last stdout line: one JSON object with exactly these keys *)
let summary_line report metrics =
  json_obj
    [
      ("correct", string_of_bool (correct report)); ("attempted", string_of_int report.attempted);
      ("failed", string_of_int report.failed);
      ( "metrics",
        json_obj
          (List.map
             (fun m -> (m.name, json_obj [ ("value", json_num m.value); ("unit", json_str m.unit_) ]))
             metrics) );
    ]

let full_json (Workloads.W w) ~seed ~trace report metrics =
  let metric_json m =
    let summary =
      match m.summary with
      | Some s ->
        [ ("q1", json_num s.q1); ("q3", json_num s.q3); ("n", string_of_int s.n) ]
      | None -> []
    in
    let bound = match m.bound with Some b -> [ ("bound", json_num b) ] | None -> [] in
    (m.name, json_obj ((("value", json_num m.value) :: ("unit", json_str m.unit_) :: summary) @ bound))
  in
  json_obj
    [
      ("workload", json_str w.name); ("work_unit", json_str w.work_unit);
      ("trace", string_of_bool trace); ("host", host_json ~seed);
      ("correct", string_of_bool (correct report)); ("attempted", string_of_int report.attempted);
      ("failed", string_of_int report.failed);
      ("failed_frac", json_num (float_of_int report.failed /. float_of_int (max 1 report.attempted)));
      ("problems", json_list (List.rev_map json_str report.problems));
      ("metrics", json_obj (List.map metric_json metrics));
    ]

let write_atomic path text =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_text tmp (fun oc -> output_string oc text);
  Sys.rename tmp path

(* ---- output checks ------------------------------------------------------ *)

let expected_lines name =
  match List.assoc_opt name Expected_data.files with
  | None -> failwith ("no expected outputs for " ^ name)
  | Some text -> (
    match Expected.parse text with
    | Ok lines -> lines
    | Error msg -> failwith (Printf.sprintf "bench/perf/expected/%s.txt: %s" name msg))

(* Checks every result of one workload: its own invariants (the tally),
   the seed-0 expected outputs on the first result, and byte equality of
   every later result's outputs (traced ones included) with the first's. *)
let checker (w : _ Workloads.workload) ~seed report =
  let first = ref None in
  let expected = if seed = 0 then Some (expected_lines w.name) else None in
  fun r ->
    let t = w.tally r in
    let lines = w.render r in
    report.attempted <- report.attempted + t.ops;
    let mismatch =
      match !first with
      | None -> (
        first := Some lines;
        match expected with
        | None -> None
        | Some e ->
          Option.map
            (fun d -> "seed-0 outputs differ from the expected file: " ^ d)
            (Expected.diff ~expected:e lines))
      | Some f ->
        Option.map (fun d -> "outputs differ from the first iteration's: " ^ d) (Expected.diff ~expected:f lines)
    in
    (match mismatch with
    | Some msg -> fail report ~ops:t.ops msg
    | None ->
      if t.failed > 0 then fail report ~ops:t.failed (w.name ^ ": an operation broke its invariant"));
    t

(* ---- the untraced run: end-to-end metrics ------------------------------- *)

(* how far each may worsen against the parent's median before it counts as
   a regression: the seed-to-seed spreads measured on a shared 2-core host
   reach 19% for times, 6% for memory (bench/perf/README.md) *)
let bounds = [ ("setup_s", 0.25); ("wall_s", 0.25); ("work_per_s", 0.25); ("peak_rss_mb", 0.15) ]

let untraced (Workloads.W w) ~seed ~seconds report =
  let check = checker w ~seed report in
  let work = ref 0. and op_s = ref [] in
  let run =
    Measure.measure ~min_iters:w.min_iters ~seconds
      ~setup:(fun () ->
        let input = w.setup ~seed in
        fun () -> w.iterate input)
      ~check:(fun ~timed r ->
        let t = check r in
        work := t.work;
        if timed then op_s := t.op_s :: !op_s)
      ()
  in
  let bound n = List.assoc n bounds in
  (* per-compile latency: reported beside the end-to-end metrics, for the
     workload whose op is one compile *)
  let op_us = Array.map (fun s -> s *. 1e6) (Array.concat !op_s) in
  let latency =
    if op_us = [||] then []
    else
      of_samples "compile_us.p50" "us" op_us
      :: List.filter_map
           (fun pct ->
             Option.map
               (fun v -> metric (Printf.sprintf "compile_us.p%d" pct) v "us")
               (Measure.percentile op_us ~pct))
           [ 99 ]
  in
  ( [
      of_samples ~bound:(bound "setup_s") "setup_s" "s" run.setup_s;
      of_samples ~bound:(bound "wall_s") "wall_s" "s" run.iter_s;
      of_samples ~bound:(bound "work_per_s") "work_per_s" "op/s"
        (Array.map (fun s -> !work /. s) run.iter_s);
      metric ~bound:(bound "peak_rss_mb") "peak_rss_mb" (peak_rss_mb ()) "MB";
    ],
    latency )

(* ---- the traced run: per-layer metrics ---------------------------------- *)

let traced (Workloads.W w) ~seed ~seconds report =
  let check = checker w ~seed report in
  let input = w.setup ~seed in
  ignore (check (w.iterate input));
  (* untraced iterations for the overhead ratio, a quarter of the time;
     both loops compact the heap before each iteration as [measure] does *)
  let start = Measure.now_ns () in
  let rec reference acc =
    if List.length acc >= 3 && Measure.seconds_since start >= seconds /. 4. then Array.of_list acc
    else begin
      let r, dt = Measure.time_compacted (fun () -> w.iterate input) in
      ignore (check r);
      reference (dt :: acc)
    end
  in
  let untraced_s = reference [] in
  let value name layers = Option.value ~default:0. (List.assoc_opt name layers) in
  let modeled = List.filter (fun (_, _, kind) -> kind = `Modeled) Workloads.layer_metrics in
  let rec loop cal acc =
    if List.length acc >= 3 && Measure.seconds_since start >= seconds then List.rev acc
    else begin
      let l = Measure.Ledger.create () in
      Gc.compact ();
      let r = Measure.Ledger.span l "bench.iteration" (fun () -> w.traced input l) in
      let root_s = Measure.Ledger.total_s l in
      let t = check r in
      let cal =
        match cal with
        | Some cal -> cal
        | None ->
          let cal = w.calibrate input r in
          List.iter (fail report ~ops:t.ops) cal.violations;
          cal
      in
      let layers =
        ("bench.unattributed_frac", Measure.Ledger.self_s l "bench.iteration" /. root_s)
        :: cal.layers l r
      in
      (match acc with
      | (previous, _) :: _ ->
        List.iter
          (fun (name, _, _) ->
            if value name layers <> value name previous then
              fail report ~ops:t.ops (name ^ " changed between traced iterations"))
          modeled
      | [] -> ());
      loop (Some cal) ((layers, root_s) :: acc)
    end
  in
  let iterations = loop None [] in
  let median a = (Measure.summarize a).median in
  let overhead = median (Array.of_list (List.map snd iterations)) /. median untraced_s in
  ( List.map
      (fun (name, unit_, kind) ->
        let values = Array.of_list (List.map (fun (layers, _) -> value name layers) iterations) in
        match kind with
        | `Run -> metric name overhead unit_
        | `Modeled -> metric name values.(0) unit_
        | `Time ->
          let m = of_samples name unit_ values in
          (* a share split off by a calibration run can come out below 0
             when the host slowed that run down; it is not a measurement *)
          if m.value < 0. then fail report ~ops:1 (Printf.sprintf "%s is negative (%g)" name m.value);
          m)
      Workloads.layer_metrics,
    [] )

(* ---- modes -------------------------------------------------------------- *)

let run_mode ~workload ~seed ~seconds ~trace ~out =
  let report = { attempted = 0; failed = 0; problems = [] } in
  (* [metrics] are the ones BENCHMARK.json names; [extra] only informs *)
  let metrics, extra = (if trace then traced else untraced) workload ~seed ~seconds report in
  Printf.printf "failed_frac %.6g ratio\n"
    (float_of_int report.failed /. float_of_int (max 1 report.attempted));
  print_metrics (metrics @ extra);
  List.iter (fun p -> Printf.printf "problem: %s\n" p) (List.rev report.problems);
  Option.iter
    (fun path -> write_atomic path (full_json workload ~seed ~trace report (metrics @ extra)))
    out;
  print_endline (summary_line report metrics);
  exit (if correct report then 0 else 1)

let all_mode ~seed ~seconds ~traced ~out =
  let ok = ref true in
  let runs =
    List.map
      (fun w ->
        let name = Workloads.name w in
        let part = Printf.sprintf "%s.%s.part" out name in
        Printf.printf "== %s (seed %d%s)\n%!" name seed (if traced then ", traced" else "");
        let args =
          [|
            Sys.executable_name; "run"; "--workload"; name; "--seed"; string_of_int seed;
            "--seconds"; Printf.sprintf "%g" seconds; "--trace"; (if traced then "1" else "0");
            "--out"; part;
          |]
        in
        let pid = Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout Unix.stderr in
        (match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> () | _ -> ok := false);
        if Sys.file_exists part then begin
          let text = In_channel.with_open_text part In_channel.input_all in
          Sys.remove part;
          text
        end
        else begin
          ok := false;
          json_obj [ ("workload", json_str name); ("correct", "false") ]
        end)
      Workloads.all
  in
  write_atomic out
    (json_obj [ ("host", host_json ~seed); ("traced", string_of_bool traced); ("runs", json_list runs) ]
    ^ "\n");
  Printf.printf "wrote %s\n" out;
  exit (if !ok then 0 else 1)

let expect_mode workload =
  let (Workloads.W w) = workload in
  print_string
    (Printf.sprintf "# %s: seed-0 modeled outputs (regenerate: perf.exe expect %s)\n" w.name w.name
    ^ Expected.render (w.render (w.iterate (w.setup ~seed:0))))

(* ---- arguments ---------------------------------------------------------- *)

let workload_arg name =
  match Workloads.find name with
  | Some w -> w
  | None ->
    fail_usage "unknown workload %S (known: %s)" name
      (String.concat ", " (List.map Workloads.name Workloads.all))

let () =
  let seed = ref None and seconds = ref 5. and trace = ref false and out = ref None in
  let workload = ref None and traced = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      workload := Some (workload_arg v);
      parse rest
    | "--seed" :: v :: rest ->
      (match int_of_string_opt v with
      | Some n when n >= 0 -> seed := Some n
      | _ -> fail_usage "--seed must be a non-negative integer");
      parse rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
      | Some s when s > 0. && Float.is_finite s -> seconds := s
      | _ -> fail_usage "--seconds must be a positive number");
      parse rest
    | "--trace" :: v :: rest ->
      (match v with
      | "0" -> trace := false
      | "1" -> trace := true
      | _ -> fail_usage "--trace must be 0 or 1");
      parse rest
    | "--out" :: v :: rest ->
      out := Some v;
      parse rest
    | "--traced" :: rest ->
      traced := true;
      parse rest
    | arg :: _ -> fail_usage "unknown argument %S" arg
  in
  let required what = function Some v -> v | None -> fail_usage "%s is required" what in
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args ->
    parse args;
    run_mode ~workload:(required "--workload" !workload) ~seed:(required "--seed" !seed)
      ~seconds:!seconds ~trace:!trace ~out:!out
  | "all" :: args ->
    parse args;
    all_mode ~seed:(required "--seed" !seed) ~seconds:!seconds ~traced:!traced
      ~out:(required "--out" !out)
  | [ "expect"; name ] -> expect_mode (workload_arg name)
  | _ ->
    fail_usage
      "usage: perf.exe run --workload W --seed N [--seconds S] [--trace 0|1] [--out FILE]\n\
      \       perf.exe all --seed N --out FILE [--seconds S] [--traced]\n\
      \       perf.exe expect WORKLOAD"
