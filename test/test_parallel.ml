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
    (Parallel.default_jobs () = Error {|FLOPT_JOBS="nonsense": expected a positive integer|});
  (* only the CLI reads the variable: the library default ignores it *)
  let input = Array.init 16 (fun i -> i) in
  checkb "map without ~jobs ignores FLOPT_JOBS" true
    (Parallel.map succ input = Array.map succ input);
  Unix.putenv "FLOPT_JOBS" "3";
  checkb "FLOPT_JOBS honored" true (Parallel.default_jobs () = Ok 3);
  (* leave a benign value behind: later tests always pass ~jobs explicitly *)
  Unix.putenv "FLOPT_JOBS" "1"

let test_parse_jobs () =
  List.iter
    (fun (s, want) ->
      checkb (Printf.sprintf "parse_jobs %S" s) true (Parallel.parse_jobs s = want))
    [
      ("1", Ok 1);
      ("16", Ok 16);
      ("0", Error {|FLOPT_JOBS="0": expected a positive integer|});
      ("-2", Error {|FLOPT_JOBS="-2": expected a positive integer|});
      ("abc", Error {|FLOPT_JOBS="abc": expected a positive integer|});
      ("", Error {|FLOPT_JOBS="": expected a positive integer|});
      ("4 ", Error {|FLOPT_JOBS="4 ": expected a positive integer|});
    ]

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

(* the suite's inter layouts are fitted to Config.default's 64-element
   blocks (chunks block-aligned); walked at other block sizes, as
   `flopt fidelity --predict-block-elems` does, chunk boundaries fall inside
   blocks and quiet runs must stop at them.  Whole threads at 7 (a 1/8
   prefix rarely reaches a chunk boundary: cc-ver-2's chunks hold 640
   elements, its threads' prefixes 128 iterations), fidelity's sampled walk
   at 48. *)
let check_refitted_streams app =
  let layouts = Experiment.inter_layouts Config.default app in
  let threads = Config.threads Config.default in
  let blocks_per_thread = Config.default.Config.blocks_per_thread in
  List.iter
    (fun (block_elems, sample) ->
      List.iteri
        (fun i nest ->
          checkb
            (Printf.sprintf "%s nest %d (inter at block_elems %d, sample %d)" app.App.name i
               block_elems sample)
            true
            (streams_equal
               (Tracegen.nest_streams ~layouts ~block_elems ~threads ~blocks_per_thread
                  ~sample nest)
               (Tracegen.reference_streams ~layouts ~block_elems ~threads ~blocks_per_thread
                  ~sample nest)))
        app.App.program.Flo_poly.Program.nests)
    [ (7, 1); (48, 8) ]

let test_golden_tracegen_suite () =
  List.iter (check_app_streams Config.default) Suite.all;
  List.iter check_refitted_streams Suite.all

(* ---- the walk against its oracle on random nests (qcheck) --------------- *)

(* A random nest over a box with nonzero lower bounds, references into 1-3
   arrays (often several to one array), each array under a row-major,
   column-major, permuted or inter-node layout; the inter-node chunks (1-9
   elements) are rarely a multiple of the block size.  Access offsets are
   chosen so every reference stays inside its array. *)

type walk_case = {
  nest : Flo_poly.Loop_nest.t;
  layouts : Flo_core.File_layout.t array;
  block_elems : int;
  sample : int;
  blocks_per_thread : int;
  threads : int;
}

let print_walk_case c =
  let open Flo_poly in
  Printf.sprintf "box %s u=%d refs [%s] layouts [%s] block_elems=%d sample=%d bpt=%d threads=%d"
    (String.concat "x"
       (Array.to_list
          (Array.map (fun (lo, hi) -> Printf.sprintf "[%d,%d]" lo hi)
             (Iter_space.bounds c.nest.Loop_nest.space))))
    c.nest.Loop_nest.parallel_dim
    (String.concat "; " (List.map (Format.asprintf "%a" Access.pp) c.nest.Loop_nest.refs))
    (String.concat "; "
       (Array.to_list
          (Array.map
             (fun l ->
               Printf.sprintf "%s over %s" (Flo_core.File_layout.describe l)
                 (let space = Flo_core.File_layout.space l in
                  String.concat "x"
                    (List.init (Data_space.rank space) (fun k ->
                         string_of_int (Data_space.extent space k)))))
             c.layouts)))
    c.block_elems c.sample c.blocks_per_thread c.threads

let layout_gen space =
  let open QCheck.Gen in
  let open Flo_core in
  let m = Flo_poly.Data_space.rank space in
  let perm = shuffle_l (List.init m Fun.id) in
  frequency
    [
      (1, return (File_layout.Row_major space));
      (1, return (File_layout.Col_major space));
      (1, map (fun p -> File_layout.permuted space (Array.of_list p)) perm);
      ( 3,
        let* p = perm in
        let* shear = frequency [ (2, return 0); (1, oneofl [ -1; 1 ]) ] in
        let* a = int_range 0 (m - 1) and* b = int_range 0 (m - 1) in
        let d =
          let s =
            Flo_linalg.Imat.of_rows
              (List.init m (fun r ->
                   List.init m (fun c ->
                       if r = c then 1 else if r = a && c = b then shear else 0)))
          in
          Flo_linalg.Imat.mul s (Flo_linalg.Imat.permutation p)
        in
        let* v = int_range 0 (m - 1) in
        let* num_blocks = int_range 1 4 and* v_origin = int_range (-2) 4 in
        let* slab_height = int_range 1 4 in
        let* chunk = int_range 1 9 and* l = frequency [ (1, return 1); (3, int_range 2 3) ] in
        let* upper = opt (pair (int_range 1 2) (int_range 1 2)) in
        let s1 = chunk * l in
        let layers =
          match upper with
          | None -> [| { Chunk_pattern.capacity = s1; fanout = l } |]
          | Some (t1, n2) ->
            [| { Chunk_pattern.capacity = s1; fanout = l };
               { Chunk_pattern.capacity = t1 * n2 * s1; fanout = n2 } |]
        in
        return
          (File_layout.internode ~space ~d ~v ~num_blocks ~v_origin ~slab_height
             ~pattern:(Chunk_pattern.make ~layers)) );
    ]

let walk_case_gen =
  let open QCheck.Gen in
  let open Flo_poly in
  let* depth = int_range 1 3 in
  let range ext =
    let* lo = int_range (-3) 3 in
    return (lo, lo + ext - 1)
  in
  let* outer = array_repeat (depth - 1) (int_range 1 6 >>= range) in
  (* long rows, so quiet runs have room *)
  let* inner = int_range 1 24 >>= range in
  let bounds = Array.append outer [| inner |] in
  let* u = int_range 0 (depth - 1) in
  let* n_arrays = int_range 1 3 in
  let* ranks = array_repeat n_arrays (int_range 1 3) in
  (* an access row reads one loop index (as real programs mostly do), or
     mixes several with small coefficients; an aligned access reads the
     innermost loop in its last coordinate, like a[i][j] in an (i, j) nest *)
  let unit j = List.init depth (fun k -> if k = j then 1 else 0) in
  let row =
    frequency
      [
        (2, map unit (int_range 0 (depth - 1)));
        (1, list_repeat depth (oneofl [ 0; 0; 1; 1; -1; 2; -2 ]));
      ]
  in
  let matrix m =
    frequency
      [ (1, return (List.init m (fun k -> unit (max 0 (depth - m + k))))); (2, list_repeat m row) ]
  in
  let* refs =
    let* n_refs = int_range 1 4 in
    list_repeat n_refs
      (let* a = int_range 0 (n_arrays - 1) in
       let* rows = matrix ranks.(a) in
       let* extra = list_repeat ranks.(a) (int_range 0 3) in
       return (a, rows, extra))
  in
  (* shift each access coordinate's range over the box to start at [extra];
     size each array to hold every reference's range *)
  let extents = Array.map (fun m -> Array.make m 1) ranks in
  let accesses =
    List.map
      (fun (a, rows, extra) ->
        let offsets =
          List.mapi
            (fun k (row, extra) ->
              let lo_sum = ref 0 and hi_sum = ref 0 in
              List.iteri
                (fun j c ->
                  let l, h = bounds.(j) in
                  lo_sum := !lo_sum + min (c * l) (c * h);
                  hi_sum := !hi_sum + max (c * l) (c * h))
                row;
              let q = extra - !lo_sum in
              extents.(a).(k) <- max extents.(a).(k) (!hi_sum + q + 1);
              q)
            (List.combine rows extra)
        in
        Access.of_rows ~array_id:a rows offsets)
      refs
  in
  let* pads = array_repeat n_arrays (int_range 0 2) in
  let spaces =
    Array.mapi
      (fun a e -> Data_space.make (Array.mapi (fun k x -> if k = 0 then x + pads.(a) else x) e))
      extents
  in
  let* layouts = flatten_a (Array.map layout_gen spaces) in
  let* block_elems = oneofl [ 1; 3; 7; 64 ] in
  let* sample = int_range 1 5 and* blocks_per_thread = int_range 1 2 in
  let* threads = int_range 1 4 in
  return
    {
      nest = Loop_nest.make ~parallel_dim:u (Iter_space.make bounds) accesses;
      layouts;
      block_elems;
      sample;
      blocks_per_thread;
      threads;
    }

let prop_walk_matches_reference =
  QCheck.Test.make ~count:10000 ~name:"nest_streams = reference_streams on random nests"
    (QCheck.make ~print:print_walk_case walk_case_gen)
    (fun { nest; layouts; block_elems; sample; blocks_per_thread; threads } ->
      let layouts = Array.get layouts in
      streams_equal
        (Tracegen.nest_streams ~layouts ~block_elems ~threads ~blocks_per_thread ~sample nest)
        (Tracegen.reference_streams ~layouts ~block_elems ~threads ~blocks_per_thread ~sample
           nest))

let qsuite =
  List.map QCheck_alcotest.to_alcotest [ prop_grid_jobs_equivalence; prop_walk_matches_reference ]

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
  (* appended, so earlier cases keep their numbers (`test parallel 9`) *)
  @ [ ("FLOPT_JOBS parse names the value", `Quick, test_parse_jobs) ]
