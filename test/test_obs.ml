open Flo_obs
open Flo_storage

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

(* ---- Histogram: units ------------------------------------------------- *)

let test_histogram_basics () =
  let h = Histogram.create () in
  checkb "empty" true (Histogram.is_empty h);
  checkf "empty percentile" 0. (Histogram.percentile h 0.5);
  List.iter (Histogram.add h) [ 1.; 10.; 100.; 1000.; 10000. ];
  check "count" 5 (Histogram.count h);
  checkf "sum" 11111. (Histogram.sum h);
  checkf "mean" 2222.2 (Histogram.mean h);
  checkf "min" 1. (Histogram.min_value h);
  checkf "max" 10000. (Histogram.max_value h);
  (* p100 clamps to the observed max, p0 to the observed min *)
  checkf "p100 = max" 10000. (Histogram.percentile h 1.0);
  checkf "p0 = min" 1. (Histogram.percentile h 0.0);
  (* the median estimate brackets the true median's bucket *)
  let p50 = Histogram.percentile h 0.5 in
  checkb "p50 bracketed" true (p50 >= 100. && p50 < 260.);
  Histogram.reset h;
  check "reset" 0 (Histogram.count h);
  Alcotest.check_raises "bad shape" (Invalid_argument "Histogram.create: lo must be positive")
    (fun () -> ignore (Histogram.create ~lo:0. ()));
  Alcotest.check_raises "merge shape mismatch"
    (Invalid_argument "Histogram.merge: shape mismatch") (fun () ->
      ignore (Histogram.merge (Histogram.create ()) (Histogram.create ~buckets:8 ())))

let test_histogram_percentile_order () =
  let h = Histogram.create () in
  for i = 1 to 1000 do
    Histogram.add h (float_of_int i)
  done;
  let last = ref 0. in
  List.iter
    (fun p ->
      let v = Histogram.percentile h p in
      checkb (Printf.sprintf "p%.0f nondecreasing" (100. *. p)) true (v >= !last);
      last := v)
    [ 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ]

let test_histogram_edge_shapes () =
  (* one bucket is a legal shape: everything lands in the open top bucket *)
  let h = Histogram.create ~buckets:1 () in
  checkf "empty single-bucket percentile" 0. (Histogram.percentile h 0.5);
  List.iter (Histogram.add h) [ 2.; 40.; 900. ];
  check "count" 3 (Histogram.count h);
  (* the only bucket's edge is +inf; every percentile clamps to the observed
     max rather than raising or returning inf (a one-bucket histogram has no
     quantile resolution, documented in the mli) *)
  List.iter
    (fun p ->
      let v = Histogram.percentile h p in
      checkb (Printf.sprintf "single-bucket p%.0f finite" (100. *. p)) true
        (Float.is_finite v);
      checkf (Printf.sprintf "single-bucket p%.0f = max" (100. *. p)) 900. v)
    [ 0.0; 0.5; 0.9; 1.0 ];
  checkf "single-bucket min still tracked" 2. (Histogram.min_value h);
  (* empty histograms answer every quantile with 0., documented *)
  let e = Histogram.create () in
  List.iter (fun p -> checkf "empty percentile" 0. (Histogram.percentile e p))
    [ 0.0; 0.5; 0.99; 1.0 ];
  Alcotest.check_raises "zero buckets still rejected"
    (Invalid_argument "Histogram.create: need at least 1 bucket") (fun () ->
      ignore (Histogram.create ~buckets:0 ()))

(* ---- Histogram: properties ------------------------------------------- *)

(* integral samples keep float sums exact, so merge totals compare with = *)
let samples_arb =
  QCheck.list_of_size (QCheck.Gen.int_range 0 200)
    (QCheck.map float_of_int (QCheck.int_range 0 100_000))

let prop_histogram_add_merge_preserves_count =
  QCheck.Test.make ~name:"histogram add/merge preserves counts" ~count:100
    (QCheck.pair samples_arb samples_arb) (fun (xs, ys) ->
      let ha = Histogram.create () and hb = Histogram.create () in
      List.iter (Histogram.add ha) xs;
      List.iter (Histogram.add hb) ys;
      let m = Histogram.merge ha hb in
      let hall = Histogram.create () in
      List.iter (Histogram.add hall) (xs @ ys);
      Histogram.count m = List.length xs + List.length ys
      && Histogram.count m = Histogram.count hall
      && Histogram.counts m = Histogram.counts hall
      && Histogram.sum m = Histogram.sum hall
      && Array.fold_left ( + ) 0 (Histogram.counts m) = Histogram.count m)

(* the traffic engine's bulk-replay primitive must be indistinguishable
   from the per-observation loop it shortcuts *)
let prop_histogram_add_many_equals_repeated_add =
  QCheck.Test.make ~name:"histogram add_many = n repeated adds" ~count:100
    QCheck.(pair samples_arb (small_list (int_bound 5_000)))
    (fun (values, counts) ->
      let pairs =
        List.map2
          (fun v n -> (v, n))
          values
          (List.init (List.length values) (fun i ->
               match List.nth_opt counts i with Some n -> n | None -> 1))
      in
      let bulk = Histogram.create () and looped = Histogram.create () in
      List.iter (fun (v, n) -> Histogram.add_many bulk v n) pairs;
      List.iter
        (fun (v, n) ->
          for _ = 1 to n do
            Histogram.add looped v
          done)
        pairs;
      Histogram.count bulk = Histogram.count looped
      && Histogram.counts bulk = Histogram.counts looped
      && Float.abs (Histogram.sum bulk -. Histogram.sum looped)
         <= 1e-6 *. Float.max 1. (Float.abs (Histogram.sum looped))
      && Histogram.min_value bulk = Histogram.min_value looped
      && Histogram.max_value bulk = Histogram.max_value looped
      && (Histogram.is_empty bulk
         || Histogram.percentile bulk 0.99 = Histogram.percentile looped 0.99))

let test_histogram_add_many_validation () =
  let h = Histogram.create () in
  Histogram.add_many h 5. 0;
  Alcotest.(check bool) "count 0 is a no-op" true (Histogram.is_empty h);
  Alcotest.(check bool) "negative count rejected" true
    (match Histogram.add_many h 5. (-1) with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "NaN rejected" true
    (match Histogram.add_many h Float.nan 3 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let prop_histogram_bucket_monotone =
  QCheck.Test.make ~name:"histogram buckets are monotone" ~count:100 samples_arb
    (fun xs ->
      let h = Histogram.create () in
      List.iter (Histogram.add h) xs;
      let bounds = Histogram.bounds h in
      let strictly_increasing = ref true in
      for i = 1 to Array.length bounds - 1 do
        if not (bounds.(i) > bounds.(i - 1)) then strictly_increasing := false
      done;
      (* a larger sample never lands in an earlier bucket: cumulative counts
         up to each bound dominate the true CDF ordering *)
      let index_of v =
        let idx = ref (Array.length bounds - 1) in
        (try
           Array.iteri
             (fun i b ->
               if v <= b then begin
                 idx := i;
                 raise Exit
               end)
             bounds
         with Exit -> ());
        !idx
      in
      let sorted = List.sort compare xs in
      let indices = List.map index_of sorted in
      let rec nondecreasing = function
        | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
        | _ -> true
      in
      !strictly_increasing && nondecreasing indices)

(* ---- Metrics: units --------------------------------------------------- *)

let test_metrics_registry () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "latency" in
  Histogram.add h 5.;
  (* registration is idempotent: the same histogram comes back, and the
     shape parameters of a later lookup are ignored *)
  Histogram.add (Metrics.histogram m ~buckets:4 "latency") 7.;
  check "same histogram" 2 (Histogram.count h);
  check "first shape kept" 48 (Histogram.bucket_count h);
  (* labels are order-insensitive dimensions *)
  let l1 = Metrics.histogram m ~labels:[ ("node", "0"); ("layer", "l1") ] "hits" in
  let l1' = Metrics.histogram m ~labels:[ ("layer", "l1"); ("node", "0") ] "hits" in
  let l2 = Metrics.histogram m ~labels:[ ("node", "0"); ("layer", "l2") ] "hits" in
  Histogram.add l1 1.;
  Histogram.add l1' 1.;
  Histogram.add l2 1.;
  check "labeled histogram shared" 2 (Histogram.count l1);
  check "distinct labels distinct" 1 (Histogram.count l2);
  (match Metrics.find_histogram m ~labels:[ ("layer", "l2"); ("node", "0") ] "hits" with
  | Some h' -> check "findable in any label order" 1 (Histogram.count h')
  | None -> Alcotest.fail "histogram not found");
  checkb "unknown name" true (Metrics.find_histogram m "requests" = None);
  (* to_list is sorted by name, then labels *)
  Alcotest.(check (list (pair string (list (pair string string))))) "sorted listing"
    [
      ("hits", [ ("layer", "l1"); ("node", "0") ]);
      ("hits", [ ("layer", "l2"); ("node", "0") ]);
      ("latency", []);
    ]
    (List.map (fun (name, labels, _) -> (name, labels)) (Metrics.to_list m))

(* ---- Event ------------------------------------------------------------- *)

let test_event_json () =
  let e =
    Event.make ~time_us:12.5 ~kind:Event.Disk_read ~layer:Event.Disk ~node:3 ~thread:1
      ~file:0 ~block:42 ~latency_us:300.25 ()
  in
  let json = Event.to_json e in
  checkb "object braces" true
    (String.length json > 2 && json.[0] = '{' && json.[String.length json - 1] = '}');
  List.iter
    (fun needle ->
      checkb (Printf.sprintf "contains %s" needle) true
        (let len = String.length needle in
         let rec scan i =
           i + len <= String.length json && (String.sub json i len = needle || scan (i + 1))
         in
         scan 0))
    [ {|"kind":"disk_read"|}; {|"layer":"disk"|}; {|"node":3|}; {|"block":42|};
      {|"lat_us":300.250|}; {|"t_us":12.500|} ]

let test_event_json_parse () =
  (* field order and whitespace are irrelevant; lat_us is optional *)
  let line =
    {| { "block": 7, "kind": "hit", "t_us": 3.5, "node": 2, "layer": "l2", "file": 1, "thread": 4 } |}
  in
  (match Event.of_json line with
  | Ok e ->
    checkb "kind" true (e.Event.kind = Event.Hit);
    checkb "layer" true (e.Event.layer = Event.L2);
    check "node" 2 e.Event.node;
    check "block" 7 e.Event.block;
    checkf "time" 3.5 e.Event.time_us;
    checkf "lat defaults" 0. e.Event.latency_us
  | Error msg -> Alcotest.failf "valid line rejected: %s" msg);
  List.iter
    (fun bad ->
      match Event.of_json bad with
      | Ok _ -> Alcotest.failf "accepted malformed %S" bad
      | Error _ -> ())
    [
      ""; "[]"; "{"; {|{"t_us":1}|};
      {|{"t_us":1,"kind":"hit","layer":"l9","node":0,"thread":0,"file":0,"block":0}|};
      {|{"t_us":1,"kind":"hit","layer":"l1","node":0,"thread":0,"file":0,"block":0} x|};
    ];
  (* an unknown kind is NOT malformed: it round-trips as an opaque record
     (forward compat with event kinds from newer builds) *)
  match
    Event.of_json
      {|{"t_us":1,"kind":"warp","layer":"l1","node":0,"thread":0,"file":0,"block":0}|}
  with
  | Ok e -> checkb "unknown kind wraps in Other" true (e.Event.kind = Event.Other "warp")
  | Error msg -> Alcotest.failf "unknown kind rejected: %s" msg

(* byte-identity gate: every event of the golden fixture, parsed and
   re-emitted, reproduces the file byte for byte *)
let test_golden_trace_reemits () =
  let path =
    if Sys.file_exists "data/golden_trace.jsonl" then "data/golden_trace.jsonl"
    else "test/data/golden_trace.jsonl"
  in
  let ic = open_in_bin path in
  let bytes = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let lines = String.split_on_char '\n' bytes |> List.filter (( <> ) "") in
  check "fixture events" 39 (List.length lines);
  let reemitted =
    List.map
      (fun line ->
        match Event.of_json line with
        | Ok e -> Event.to_json e ^ "\n"
        | Error msg -> Alcotest.failf "golden line rejected: %s" msg)
      lines
  in
  Alcotest.(check string) "re-emitted trace" bytes (String.concat "" reemitted)

(* floats as eighths so the %.3f wire format round-trips exactly; [Other]
   names are printable strings rich in quotes and backslashes, never one of
   the 11 built-in names *)
let event_arb =
  let open QCheck in
  let other =
    Gen.(
      string_size ~gen:(frequency [ (4, printable); (1, oneofl [ '"'; '\\' ]) ]) (int_bound 10)
      >|= fun s -> Event.Other (if Event.kind_of_string s = None then s else s ^ "\""))
  in
  let gen =
    Gen.(
      frequency
        [
          ( 3,
            oneofl [ Event.Access; Event.Hit; Event.Miss; Event.Evict; Event.Demote;
                     Event.Prefetch; Event.Disk_read; Event.Fault; Event.Retry;
                     Event.Timeout; Event.Failover ] );
          (1, other);
        ]
      >>= fun kind ->
      oneofl [ Event.L1; Event.L2; Event.Disk ] >>= fun layer ->
      int_range 0 7 >>= fun node ->
      int_range 0 63 >>= fun thread ->
      int_range 0 15 >>= fun file ->
      int_range 0 100_000 >>= fun block ->
      int_range 0 8_000_000 >>= fun t8 ->
      int_range 0 80_000 >>= fun l8 ->
      return
        (Event.make
           ~time_us:(float_of_int t8 /. 8.)
           ~kind ~layer ~node ~thread ~file ~block
           ~latency_us:(float_of_int l8 /. 8.)
           ()))
  in
  QCheck.make ~print:(fun e -> Event.to_json e) gen

let prop_event_json_roundtrip =
  QCheck.Test.make ~name:"event to_json/of_json round-trips" ~count:500 event_arb
    (fun e ->
      match Event.of_json (Event.to_json e) with
      | Ok e' -> e' = e
      | Error _ -> false)

(* ---- Json: the one codec ------------------------------------------------ *)

module J = Json

let test_json_roundtrip_by_hand () =
  let t =
    J.Obj
      [
        ("s", J.Str "he\"llo\n");
        ("n", J.Num 1.5);
        ("i", J.Num 42.);
        ("b", J.Bool true);
        ("z", J.Null);
        ("l", J.Arr [ J.Num 1.; J.Arr []; J.Obj [] ]);
      ]
  in
  checkb "roundtrip" true (J.parse (J.to_string t) = t);
  Alcotest.(check string) "integers print bare" "42" (J.to_string (J.Num 42.))

let test_json_parse_accepts_whitespace () =
  let t = J.parse "  {\n  \"a\" : [ 1 , 2 ] ,\n \"b\" : null }  " in
  checkb "fields" true
    (t = J.Obj [ ("a", J.Arr [ J.Num 1.; J.Num 2. ]); ("b", J.Null) ])

let test_json_parse_rejects_garbage () =
  List.iter
    (fun s ->
      match J.parse s with
      | exception J.Parse _ -> ()
      | v -> Alcotest.failf "accepted %S as %s" s (J.to_string v))
    [ ""; "{"; "{\"a\":}"; "[1,]"; "tru"; "{} x"; "\"unterminated";
      (* RFC 8259: only the eight short escapes and \uXXXX exist *)
      {|"\x"|}; {|"\u12"|}; {|"\u12g4"|};
      (* a lone surrogate has no UTF-8 form *)
      {|"\ud800"|}; {|"\udc00"|}; {|"\ud800\u0041"|} ]

(* every reader decodes the same escapes the same way *)
let test_json_escapes_decode_once () =
  let check_str = Alcotest.(check string) in
  check_str "\\u escapes decode to UTF-8" "\xe4\xb8\xad\xc3\xa9"
    (J.str (J.parse {|"\u4e2d\u00e9"|}));
  check_str "surrogate pair" "\xf0\x9f\x98\x80" (J.str (J.parse {|"\ud83d\ude00"|}));
  check_str "short escapes" "\"\\/\b\012\n\r\t"
    (J.str (J.parse {|"\"\\\/\b\f\n\r\t"|}));
  checkb "first duplicate key wins" true
    (J.member "a" (J.parse {|{"a":1,"a":2}|}) = Some (J.Num 1.));
  (* the same bytes through the event and trace readers *)
  (match
     Event.of_json
       {|{"t_us":1,"kind":"a\nb\u4e2d","layer":"l1","node":0,"thread":0,"file":0,"block":0}|}
   with
  | Ok e -> checkb "event kind unescaped" true (e.Event.kind = Event.Other "a\nb\xe4\xb8\xad")
  | Error msg -> Alcotest.failf "event rejected: %s" msg);
  (match
     Trace.of_json
       {|{"trace_id":"000000000000002a","tenant":1,"app":"\u4e2d\u00e9","window":0,"shard":0,"outcome":"o\nk","lat_us":5.0,"count":1,"reasons":["head"],"root":{"name":"request","t_us":0.0,"dur_us":5.0}}|}
   with
  | Ok t ->
    check_str "trace app" "\xe4\xb8\xad\xc3\xa9" t.Trace.app;
    check_str "trace outcome" "o\nk" t.Trace.outcome
  | Error msg -> Alcotest.failf "trace rejected: %s" msg);
  (* integer fields take integral numbers only *)
  checkb "fractional block rejected" true
    (Result.is_error
       (Event.of_json
          {|{"t_us":1,"kind":"hit","layer":"l1","node":0,"thread":0,"file":0,"block":1.5}|}))

let test_json_nesting_cap () =
  let deep n = String.make n '[' ^ String.make n ']' in
  checkb "64 levels parse" true (match J.parse (deep J.max_depth) with J.Arr _ -> true | _ -> false);
  checkb "65 levels rejected" true
    (match J.parse (deep (J.max_depth + 1)) with exception J.Parse _ -> true | _ -> false);
  (* two containers per span level: a 32-level span tree is the deepest a
     trace can carry *)
  let trace levels =
    let b = Buffer.create 4096 in
    Buffer.add_string b
      {|{"trace_id":"0000000000000001","tenant":0,"app":"x","window":0,"shard":0,"outcome":"ok","lat_us":1.0,"count":1,"reasons":["head"],"root":|};
    for _ = 2 to levels do
      Buffer.add_string b {|{"name":"s","t_us":0.0,"dur_us":1.0,"children":[|}
    done;
    Buffer.add_string b {|{"name":"s","t_us":0.0,"dur_us":1.0}|};
    for _ = 2 to levels do
      Buffer.add_string b "]}"
    done;
    Buffer.add_string b "}";
    Trace.of_json (Buffer.contents b)
  in
  checkb "32 span levels parse" true (Result.is_ok (trace 32));
  checkb "33 span levels rejected" true (Result.is_error (trace 33))

(* arbitrary bytes in every string and key: the printer must escape every
   control byte and the parser must give every byte back *)
let json_gen =
  let open QCheck.Gen in
  let bytes n = string_size ~gen:char (int_bound n) in
  let scalar =
    oneof
      [
        return J.Null;
        map (fun b -> J.Bool b) bool;
        map (fun n -> J.Num (float_of_int n)) small_signed_int;
        map (fun s -> J.Str s) (bytes 8);
      ]
  in
  let rec tree depth =
    if depth = 0 then scalar
    else
      frequency
        [
          (2, scalar);
          (1, map (fun l -> J.Arr l) (list_size (int_bound 4) (tree (depth - 1))));
          ( 1,
            map
              (fun kvs -> J.Obj kvs)
              (list_size (int_bound 4) (pair (bytes 6) (tree (depth - 1)))) );
        ]
  in
  tree 3

let prop_json_roundtrip =
  QCheck.Test.make ~count:300 ~name:"Json.parse inverts Json.to_string"
    (QCheck.make ~print:J.to_string json_gen)
    (fun t ->
      let s = J.to_string t in
      String.for_all (fun c -> c >= ' ') s && J.parse s = t)

(* arbitrary byte strings, not just printable ones: every reader of a file
   an attacker (or a crashed writer) controls must be total — structured
   [Error], never an exception *)
let hostile_string_gen =
  QCheck.Gen.(
    frequency
      [
        (* raw bytes *)
        (3, string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 64));
        (* json-ish prefixes that exercise every parser state *)
        ( 2,
          map
            (fun (a, b) -> a ^ b)
            (pair
               (oneofl
                  [ "{"; "["; "{\"a\":"; "[1,"; "\""; "\\"; "tru"; "-"; "1e";
                    "{\"schema\":\"flopt-bench\","; "nul"; "\"\\u"; "\"\\ud83d\\u" ])
               (string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 32)) ) );
      ])

let prop_decoder_total name decode =
  QCheck.Test.make ~count:1000 ~name:(name ^ " is total on arbitrary bytes")
    (QCheck.make ~print:String.escaped hostile_string_gen)
    (fun s -> match decode s with Ok _ | Error _ -> true)

(* ---- Sink ------------------------------------------------------------- *)

let dummy_event i =
  Event.make ~time_us:(float_of_int i) ~kind:Event.Access ~layer:Event.L1 ~node:0
    ~thread:0 ~file:0 ~block:i ()

let test_sink_jsonl_and_callback () =
  let path = Filename.temp_file "flopt_obs" ".jsonl" in
  let oc = open_out path in
  let sink = Sink.jsonl oc in
  for i = 0 to 4 do
    sink.Sink.emit (dummy_event i)
  done;
  sink.Sink.flush ();
  close_out oc;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  check "one line per event" 5 (List.length !lines);
  List.iter
    (fun line ->
      checkb "line is a json object" true
        (String.length line > 2 && line.[0] = '{' && line.[String.length line - 1] = '}'))
    !lines;
  let seen = ref [] in
  let callback = Sink.callback (fun e -> seen := e.Event.block :: !seen) in
  for i = 0 to 4 do
    callback.Sink.emit (dummy_event i)
  done;
  Alcotest.(check (list int)) "callback sees every event in order" [ 0; 1; 2; 3; 4 ]
    (List.rev !seen);
  checkb "null sink is null" true (Sink.is_null Sink.null);
  checkb "callback sink is not null" false (Sink.is_null callback)

exception Simulated_crash

let read_lines path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  List.rev !lines

let test_with_jsonl_crash_safe () =
  let path = Filename.temp_file "flopt_crash" ".jsonl" in
  (* the run dies mid-trace; the sink must still leave a complete prefix *)
  (try
     Sink.with_jsonl path (fun sink ->
         for i = 0 to 9 do
           sink.Sink.emit (dummy_event i);
           if i = 6 then raise Simulated_crash
         done)
   with Simulated_crash -> ());
  let lines = read_lines path in
  check "every emitted event on disk" 7 (List.length lines);
  checkb "no temp file left behind" false (Sys.file_exists (path ^ ".part"));
  List.iteri
    (fun i line ->
      match Event.of_json line with
      | Ok e -> check "line parses back" i e.Event.block
      | Error msg -> Alcotest.failf "truncated line %d: %s" i msg)
    lines;
  Sys.remove path;
  (* the normal path returns f's value and closes the channel *)
  let path2 = Filename.temp_file "flopt_ok" ".jsonl" in
  let n =
    Sink.with_jsonl path2 (fun sink ->
        sink.Sink.emit (dummy_event 0);
        41 + 1)
  in
  check "result forwarded" 42 n;
  check "one line" 1 (List.length (read_lines path2));
  Sys.remove path2

(* ---- Span --------------------------------------------------------------- *)

let test_span_records () =
  let m = Metrics.create () in
  let now = ref 0. in
  let clock () = !now in
  let s = Span.start ~metrics:m ~clock "phase" in
  now := 125.;
  checkf "elapsed" 125. (Span.stop s);
  ignore (Span.with_ ~metrics:m ~clock "phase" (fun () -> now := !now +. 75.));
  match Metrics.find_histogram m "span.phase" with
  | Some h ->
    check "two samples" 2 (Histogram.count h);
    checkf "total" 200. (Histogram.sum h)
  | None -> Alcotest.fail "span histogram missing"

(* off means off: without a registry a span reads no clock *)
let test_span_off_reads_no_clock () =
  let reads = ref 0 in
  let clock () =
    incr reads;
    float_of_int !reads
  in
  check "thunk result" 7 (Span.with_ ~clock "phase" (fun () -> 7));
  check "no registry, no read" 0 !reads;
  ignore (Span.with_ ~metrics:(Metrics.create ()) ~clock "phase" (fun () -> ()));
  check "registry: start and stop" 2 !reads

(* ---- Hierarchy events vs. stats (satellite: trace consistency) ---------- *)

let count_events events pred = List.length (List.filter pred events)

(* valid (io_nodes, storage_nodes) pairs under the even-nesting constraint *)
let topo_shapes = [ (1, 1); (2, 1); (2, 2); (4, 2) ]

let hierarchy_case_arb =
  let open QCheck in
  let gen =
    Gen.(
      oneofl topo_shapes >>= fun (io_nodes, storage_nodes) ->
      oneofl [ 1; 2 ] >>= fun compute_per_io ->
      int_range 2 4 >>= fun io_cache ->
      int_range 2 8 >>= fun st_cache ->
      oneofl [ Hierarchy.Inclusive; Hierarchy.Demote_exclusive ] >>= fun protocol ->
      int_range 0 2 >>= fun readahead ->
      list_size (int_range 1 150)
        (pair (int_range 0 ((io_nodes * compute_per_io) - 1))
           (pair (int_range 0 2) (int_range 0 19)))
      >>= fun accesses ->
      return (io_nodes, storage_nodes, compute_per_io, io_cache, st_cache, protocol,
              readahead, accesses))
  in
  make
    ~print:(fun (io, st, cpi, ic, sc, proto, ra, accesses) ->
      Printf.sprintf "io=%d st=%d cpi=%d caches=(%d,%d) proto=%s ra=%d n=%d" io st cpi ic
        sc
        (match proto with Hierarchy.Inclusive -> "incl" | _ -> "demote")
        ra (List.length accesses))
    gen

let prop_hierarchy_events_match_stats =
  QCheck.Test.make ~name:"hierarchy events are consistent with stats" ~count:100
    hierarchy_case_arb
    (fun (io_nodes, storage_nodes, compute_per_io, io_cache, st_cache, protocol,
          readahead, accesses) ->
      let topo =
        Topology.make ~compute_nodes:(io_nodes * compute_per_io) ~io_nodes ~storage_nodes
          ~block_elems:4 ~io_cache_blocks:io_cache ~storage_cache_blocks:st_cache ()
      in
      let rev_events = ref [] in
      let sink = Sink.callback (fun e -> rev_events := e :: !rev_events) in
      let h = Hierarchy.create ~protocol ~readahead ~sink topo in
      List.iter
        (fun (thread, (file, index)) ->
          Hierarchy.access h ~thread (Block.make ~file ~index))
        accesses;
      let events = List.rev !rev_events in
      let layer_ok layer stats_of nodes =
        List.init nodes Fun.id
        |> List.for_all (fun node ->
               let s : Stats.t = stats_of node in
               let c kind =
                 count_events events (fun (e : Event.t) ->
                     e.Event.kind = kind && e.Event.layer = layer && e.Event.node = node)
               in
               c Event.Hit = s.Stats.hits
               && c Event.Miss = s.Stats.misses
               && c Event.Hit + c Event.Miss
                  = count_events events (fun (e : Event.t) ->
                        (e.Event.kind = Event.Hit || e.Event.kind = Event.Miss)
                        && e.Event.layer = layer && e.Event.node = node)
               && s.Stats.hits + s.Stats.misses = s.Stats.accesses
               && c Event.Evict = s.Stats.evictions
               && c Event.Demote = s.Stats.demotions
               && c Event.Prefetch = s.Stats.prefetches)
      in
      let accesses_emitted =
        count_events events (fun (e : Event.t) -> e.Event.kind = Event.Access)
      in
      layer_ok Event.L1 (Hierarchy.l1_stats_of h) io_nodes
      && layer_ok Event.L2 (Hierarchy.l2_stats_of h) storage_nodes
      && accesses_emitted = (Hierarchy.l1_stats h).Stats.accesses
      && count_events events (fun (e : Event.t) -> e.Event.kind = Event.Disk_read)
         = Hierarchy.disk_reads h
      && (Hierarchy.l2_stats h).Stats.prefetch_hits = Hierarchy.prefetch_hits h
      && Hierarchy.prefetch_hits h <= Hierarchy.prefetches h)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_histogram_add_merge_preserves_count;
      prop_histogram_add_many_equals_repeated_add;
      prop_histogram_bucket_monotone;
      prop_event_json_roundtrip;
      prop_json_roundtrip;
      prop_decoder_total "Event.of_json" Event.of_json;
      prop_decoder_total "Trace.of_json" Trace.of_json;
      prop_hierarchy_events_match_stats;
    ]

let suite =
  [
    ("histogram basics", `Quick, test_histogram_basics);
    ("histogram add_many validation", `Quick, test_histogram_add_many_validation);
    ("histogram percentile ordering", `Quick, test_histogram_percentile_order);
    ("histogram edge shapes", `Quick, test_histogram_edge_shapes);
    ("event json parsing", `Quick, test_event_json_parse);
    ("crash-safe jsonl sink", `Quick, test_with_jsonl_crash_safe);
    ("metrics registry", `Quick, test_metrics_registry);
    ("event json encoding", `Quick, test_event_json);
    ("golden trace re-emits byte for byte", `Quick, test_golden_trace_reemits);
    ("json roundtrip by hand", `Quick, test_json_roundtrip_by_hand);
    ("json whitespace", `Quick, test_json_parse_accepts_whitespace);
    ("json rejects garbage", `Quick, test_json_parse_rejects_garbage);
    ("json escapes decode once", `Quick, test_json_escapes_decode_once);
    ("json nesting cap", `Quick, test_json_nesting_cap);
    ("jsonl + callback sinks", `Quick, test_sink_jsonl_and_callback);
    ("span phase timing", `Quick, test_span_records);
    ("span without a registry reads no clock", `Quick, test_span_off_reads_no_clock);
  ]
  @ qsuite

(* ---- number writers ----------------------------------------------------- *)

(* the line encoders' writers must reproduce printf byte for byte; each law
   compares against the Printf conversion it replaces *)
let written add x =
  let b = Buffer.create 32 in
  add b x;
  Buffer.contents b

let fixed3_agrees x = written Json.add_fixed3 x = Printf.sprintf "%.3f" x

(* finite values around the three decimals that matter: a 53-bit mantissa
   scaled into [2^-24, 2^56), so the fast path, its 2^50 fallback edge and
   values that round to zero are all drawn *)
let scaled_gen =
  QCheck.Gen.(
    map2
      (fun m e -> Float.ldexp (Int64.to_float (Int64.shift_right_logical m 11)) (e - 53))
      ui64 (int_range (-24) 56))

(* exact binary ties and near-ties: k / 2^j for j <= 12 has at most 12
   fraction bits, so k / 2^j * 1000 can land exactly on .5 *)
let tie_gen =
  QCheck.Gen.(
    map2 (fun k j -> Float.ldexp (float_of_int k) (-j)) (int_range (-1_000_000) 1_000_000)
      (int_range 0 12))

let prop_fixed3_bits =
  QCheck.Test.make ~count:5000 ~name:"Json.add_fixed3 = %.3f on random bit patterns"
    (QCheck.make ~print:(Printf.sprintf "%h") QCheck.Gen.(map Int64.float_of_bits ui64))
    fixed3_agrees

let prop_fixed3_scaled =
  QCheck.Test.make ~count:5000 ~name:"Json.add_fixed3 = %.3f on scaled mantissas"
    (QCheck.make ~print:(Printf.sprintf "%h")
       QCheck.Gen.(map2 (fun x neg -> if neg then -.x else x) scaled_gen bool))
    fixed3_agrees

let prop_fixed3_ties =
  QCheck.Test.make ~count:5000 ~name:"Json.add_fixed3 = %.3f on exact ties k/2^j"
    (QCheck.make ~print:(Printf.sprintf "%h") tie_gen)
    fixed3_agrees

let test_writer_edges () =
  (* the escaper's control-byte form is the \u%04x it replaced *)
  for c = 0 to 0x1f do
    let s = String.make 1 (Char.chr c) in
    Alcotest.(check string) (Printf.sprintf "escape byte %d" c) (Printf.sprintf "\\u%04x" c)
      (Json.escape s)
  done;
  let edges =
    [ 0.; -0.; 0.0625; -0.0625; 0.0005; 0.0015; 0.0025; 1e-3; 0.9995; 999.9995;
      Float.min_float; -.Float.min_float; 4e-324; -4e-324; Float.epsilon;
      0x1p50; -0x1p50; Float.pred 0x1p50; -.Float.pred 0x1p50; Float.succ 0x1p50;
      0x1p53; 1e300; Float.max_float; -.Float.max_float; Float.infinity;
      Float.neg_infinity; Float.nan; -.Float.nan ]
  in
  (* every k * 0.0005 up to 1000 sits on or next to a decimal tie *)
  let halves = List.init 2_000_001 (fun k -> float_of_int (k - 1_000_000) *. 0.0005) in
  let sixteenths = List.init 4097 (fun k -> Float.ldexp (float_of_int k) (-12)) in
  List.iter
    (fun x ->
      if not (fixed3_agrees x) then
        Alcotest.failf "add_fixed3 %h: got %s, printf %s" x (written Json.add_fixed3 x)
          (Printf.sprintf "%.3f" x))
    (edges @ halves @ sixteenths)

let prop_add_int =
  QCheck.Test.make ~count:2000 ~name:"Json.add_int = string_of_int"
    QCheck.(oneof [ int; small_signed_int; oneofl [ 0; -1; 9; 10; -10; min_int; max_int ] ])
    (fun n -> written Json.add_int n = string_of_int n)

let prop_add_hex64 =
  QCheck.Test.make ~count:2000 ~name:"Json.add_hex64 = %016Lx"
    QCheck.(oneof [ int64; oneofl [ 0L; 1L; -1L; 15L; 16L; Int64.min_int; Int64.max_int ] ])
    (fun id -> written Json.add_hex64 id = Printf.sprintf "%016Lx" id)

let suite =
  suite
  @ [ ("json writers match printf on edges and ties", `Quick, test_writer_edges) ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_fixed3_bits; prop_fixed3_scaled; prop_fixed3_ties; prop_add_int; prop_add_hex64 ]
