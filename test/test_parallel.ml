(* The multicore experiment engine: Parallel's determinism contract (order,
   exceptions, jobs-independence), the qcheck jobs-equivalence property over
   random small experiment grids, manifest determinism for Bench_json, and the
   golden fast-path/reference equality for Tracegen across the 16-app
   suite. *)

open Flo_storage
open Flo_workloads
open Flo_engine

let checkb = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* worker-domain count exercised against the jobs=1 reference; FLOPT_TEST_JOBS
   overrides (CI runs the suite at several values) *)
let test_jobs =
  match Sys.getenv_opt "FLOPT_TEST_JOBS" with
  | Some s -> (match int_of_string_opt s with Some n when n >= 1 -> n | _ -> 4)
  | None -> 4

(* ---- Parallel ---------------------------------------------------------- *)

let test_map_matches_sequential () =
  let input = Array.init 100 (fun i -> i) in
  let f x = (x * x) + 1 in
  let seq = Parallel.map ~jobs:1 f input in
  let par = Parallel.map ~jobs:test_jobs f input in
  checkb "jobs=N equals jobs=1" true (par = seq);
  checkb "jobs=1 equals Array.map" true (seq = Array.map f input);
  check_int "empty input" 0 (Array.length (Parallel.map ~jobs:test_jobs f [||]))

let test_map_preserves_order () =
  (* tasks finishing in any scheduling order must land by input index *)
  let input = Array.init 64 string_of_int in
  let out = Parallel.map ~jobs:test_jobs (fun s -> s ^ "!") input in
  Array.iteri (fun i s -> Alcotest.(check string) "slot" (string_of_int i ^ "!") s) out

let test_map_list () =
  let l = List.init 17 (fun i -> i) in
  checkb "map_list order" true
    (Parallel.map_list ~jobs:test_jobs succ l = List.map succ l)

exception Boom of int

let test_exception_lowest_index () =
  (* several tasks fail: the re-raised exception must be the lowest-index
     one for every jobs value, or the run report would depend on timing *)
  let input = Array.init 32 (fun i -> i) in
  let f x = if x = 7 || x = 23 then raise (Boom x) else x in
  List.iter
    (fun jobs ->
      match Parallel.map ~jobs f input with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i -> check_int (Printf.sprintf "jobs=%d" jobs) 7 i)
    [ 1; 2; test_jobs ]

let test_all_tasks_throw () =
  (* the pathological case: every task raises.  The pool must still join all
     helper domains (no leak), re-raise the lowest-index exception, and leave
     the pool usable for the next map *)
  let input = Array.init 16 (fun i -> i) in
  List.iter
    (fun jobs ->
      (match Parallel.map ~jobs (fun x -> raise (Boom x)) input with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i -> check_int (Printf.sprintf "all-throw jobs=%d" jobs) 0 i);
      (* a clean follow-up map proves no domain is stuck holding the queue *)
      checkb
        (Printf.sprintf "pool recovers after all-throw (jobs=%d)" jobs)
        true
        (Parallel.map ~jobs succ input = Array.map succ input))
    [ 1; 2; test_jobs ]

let test_jobs_validation () =
  checkb "jobs=0 rejected" true
    (match Parallel.map ~jobs:0 Fun.id [| 1 |] with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Unix.putenv "FLOPT_JOBS" "nonsense";
  checkb "bad FLOPT_JOBS rejected" true
    (match Parallel.default_jobs () with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Unix.putenv "FLOPT_JOBS" "3";
  check_int "FLOPT_JOBS honored" 3 (Parallel.default_jobs ());
  (* leave a benign value behind: later tests always pass ~jobs explicitly *)
  Unix.putenv "FLOPT_JOBS" "1"

(* ---- jobs-equivalence of experiment grids (qcheck) ---------------------- *)

let small_config ~block_elems ~threads =
  Config.with_topology Config.default
    (Topology.make ~compute_nodes:threads ~io_nodes:(max 1 (threads / 2))
       ~storage_nodes:(max 1 (threads / 4)) ~block_elems ~io_cache_blocks:32
       ~storage_cache_blocks:64 ())

let toy_app name accesses =
  let d = Flo_poly.Data_space.make [| 64; 64 |] in
  let space = Flo_poly.Iter_space.make [| (0, 63); (0, 63) |] in
  App.make ~name ~description:"toy" ~group:App.High
    (Flo_poly.Program.make ~name
       [ Flo_poly.Program.declare ~id:0 ~name:"a" d;
         Flo_poly.Program.declare ~id:1 ~name:"b" d ]
       [ Flo_poly.Loop_nest.make ~weight:2 ~parallel_dim:0 space accesses ])

let toy_col = toy_app "toy-col" [ Flo_poly.Access.ji ~array_id:0; Flo_poly.Access.ij ~array_id:1 ]
let toy_row = toy_app "toy-row" [ Flo_poly.Access.ij ~array_id:0; Flo_poly.Access.ij ~array_id:1 ]

let grid_arb =
  QCheck.make ~print:(fun (b, t, s, inter) -> Printf.sprintf "block=%d threads=%d sample=%d inter=%b" b t s inter)
    QCheck.Gen.(
      let* block_elems = oneofl [ 8; 16 ] in
      let* threads = oneofl [ 4; 8 ] in
      let* sample = oneofl [ 1; 4 ] in
      let* inter = bool in
      return (block_elems, threads, sample, inter))

let prop_grid_jobs_equivalence =
  QCheck.Test.make ~count:12
    ~name:"experiment grid: --jobs 1 and --jobs N give identical results" grid_arb
    (fun (block_elems, threads, sample, inter) ->
      let config = small_config ~block_elems ~threads in
      let tasks =
        Array.of_list
          (List.concat_map
             (fun app ->
               [ (app, `Default); (app, if inter then `Inter else `Default) ])
             [ toy_col; toy_row ])
      in
      let run (app, mode) =
        let layouts =
          match mode with
          | `Default -> Experiment.default_layouts app
          | `Inter -> Experiment.inter_layouts config app
        in
        Run.run ~sample ~config ~layouts app
      in
      Parallel.map ~jobs:1 run tasks = Parallel.map ~jobs:test_jobs run tasks)

(* ---- manifest determinism (Bench_json) ---------------------------------- *)

let test_manifest_jobs_equivalence () =
  let config = small_config ~block_elems:16 ~threads:8 in
  let apps = [ toy_col; toy_row ] in
  let collect jobs = Bench_json.collect ~jobs ~sample:1 ~config apps in
  (* every metric is modeled: two sequential runs and a parallel one give
     the same manifest, value for value *)
  let seq = collect 1 in
  checkb "identical across runs" true (collect 1 = seq);
  checkb "identical across jobs" true (collect test_jobs = seq);
  checkb "all gated" true
    (List.for_all (fun (x : Bench_schema.metric) -> x.Bench_schema.gated)
       seq.Bench_schema.metrics);
  checkb "manifest validates" true (Bench_schema.validate seq = Ok ())

(* ---- golden equality: fast tracegen = naive reference ------------------- *)

let streams_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun (x : Block.t array) y -> x = y) a b

let check_app_streams config app =
  let topo = config.Config.topology in
  let block_elems = topo.Topology.block_elems in
  let threads = Config.threads config in
  let blocks_per_thread = config.Config.blocks_per_thread in
  List.iter
    (fun (mode, layouts) ->
      List.iter
        (fun sample ->
          List.iteri
            (fun i nest ->
              let fast =
                Tracegen.nest_streams ~layouts ~block_elems ~threads
                  ~blocks_per_thread ~sample nest
              in
              let naive =
                Tracegen.reference_streams ~layouts ~block_elems ~threads
                  ~blocks_per_thread ~sample nest
              in
              checkb
                (Printf.sprintf "%s nest %d (%s, sample %d)" app.App.name i mode
                   sample)
                true
                (streams_equal fast naive))
            app.App.program.Flo_poly.Program.nests)
        [ 1; 8 ])
    [
      ("default", Experiment.default_layouts app);
      ("inter", Experiment.inter_layouts config app);
    ]

let test_golden_tracegen_toy () =
  check_app_streams (small_config ~block_elems:16 ~threads:8) toy_col

let test_golden_tracegen_suite () =
  List.iter (check_app_streams Config.default) Suite.all

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_grid_jobs_equivalence ]

let suite =
  [
    ("parallel map matches sequential", `Quick, test_map_matches_sequential);
    ("parallel map preserves order", `Quick, test_map_preserves_order);
    ("parallel map_list", `Quick, test_map_list);
    ("parallel exception determinism", `Quick, test_exception_lowest_index);
    ("parallel all tasks throw", `Quick, test_all_tasks_throw);
    ("jobs validation and FLOPT_JOBS", `Quick, test_jobs_validation);
    ("bench manifest jobs-equivalence", `Quick, test_manifest_jobs_equivalence);
    ("golden tracegen equality (toy)", `Quick, test_golden_tracegen_toy);
    ("golden tracegen equality (16-app suite)", `Slow, test_golden_tracegen_suite);
  ]
  @ qsuite
