(* The allocation-free simulation kernel: the qcheck law that Flat_lru and
   the retained reference LRU agree on every operation result and the full
   eviction sequence; hierarchy fast-path vs generic-path equality over
   random access strings (both protocols, with and without readahead); the
   full-suite Run.result field-for-field identity golden; the
   Gc.minor_words proof that Flat_lru allocates nothing at steady state;
   and the karma-hints flat-accumulation regression against the reference
   per-stream Hashtbl implementation. *)

open Flo_storage
open Flo_workloads
open Flo_engine

let checkb = Alcotest.(check bool)

let test_jobs =
  match Sys.getenv_opt "FLOPT_TEST_JOBS" with
  | Some s -> (match int_of_string_opt s with Some n when n >= 1 -> n | _ -> 4)
  | None -> 4

(* ---- Flat_lru vs reference Lru: operation-string law -------------------- *)

type op = Touch of int | Insert of int | Insert_cold of int | Remove of int | Contains of int

let pp_op = function
  | Touch k -> Printf.sprintf "touch %d" k
  | Insert k -> Printf.sprintf "insert %d" k
  | Insert_cold k -> Printf.sprintf "insert_cold %d" k
  | Remove k -> Printf.sprintf "remove %d" k
  | Contains k -> Printf.sprintf "contains %d" k

(* keys are packed blocks over a few files so both components exercise the
   hash; the key space exceeds every capacity so evictions are frequent *)
let block_of_key k = Block.make ~file:(k / 16) ~index:(k mod 16)

let ops_arb =
  QCheck.make
    ~print:(fun (cap, ops) ->
      Printf.sprintf "capacity=%d [%s]" cap
        (String.concat "; " (List.map pp_op ops)))
    QCheck.Gen.(
      let* cap = int_range 1 6 in
      let* ops =
        list_size (int_range 0 200)
          (let* k = int_range 0 47 in
           oneofl [ Touch k; Insert k; Insert_cold k; Remove k; Contains k ])
      in
      return (cap, ops))

let prop_flat_lru_matches_reference =
  QCheck.Test.make ~count:300
    ~name:"Flat_lru = reference Lru: results, evictions, order" ops_arb
    (fun (capacity, ops) ->
      let flat = Flat_lru.create ~capacity in
      let refp = Lru.reference ~capacity in
      let agree =
        List.for_all
          (fun op ->
            let b = block_of_key (match op with
              | Touch k | Insert k | Insert_cold k | Remove k | Contains k -> k)
            in
            let bi = (b : Block.t :> int) in
            let same =
              match op with
              | Touch _ -> Flat_lru.touch flat bi = refp.Policy.touch b
              | Insert _ ->
                let v = Flat_lru.insert flat bi in
                let r = refp.Policy.insert b in
                (match r with
                | None -> v = Flat_lru.nil
                | Some rb -> v = (rb : Block.t :> int))
              | Insert_cold _ ->
                let v = Flat_lru.insert_cold flat bi in
                let r = refp.Policy.insert_cold b in
                (match r with
                | None -> v = Flat_lru.nil
                | Some rb -> v = (rb : Block.t :> int))
              | Remove _ -> Flat_lru.remove flat bi = refp.Policy.remove b
              | Contains _ -> Flat_lru.contains flat bi = refp.Policy.contains b
            in
            (* after every op: same size and same MRU->LRU order, so the
               next eviction decision cannot diverge *)
            let flat_order = ref [] in
            Flat_lru.iter (fun k -> flat_order := k :: !flat_order) flat;
            let ref_order = ref [] in
            refp.Policy.iter (fun b -> ref_order := (b : Block.t :> int) :: !ref_order);
            same
            && Flat_lru.size flat = refp.Policy.size ()
            && !flat_order = !ref_order)
          ops
      in
      (* clear resets both to the same empty state *)
      Flat_lru.clear flat;
      refp.Policy.clear ();
      agree && Flat_lru.size flat = 0 && refp.Policy.size () = 0)

let test_flat_lru_validation () =
  checkb "capacity < 1 rejected" true
    (match Flat_lru.create ~capacity:0 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let c = Flat_lru.create ~capacity:2 in
  checkb "negative key rejected" true
    (match Flat_lru.touch c (-1) with
    | _ -> false
    | exception Invalid_argument _ -> true);
  checkb "lru factory populates fast" true ((Lru.create ~capacity:4).Policy.fast <> None);
  checkb "reference leaves fast none" true
    ((Lru.reference ~capacity:4).Policy.fast = None)

(* ---- hierarchy: fast path = generic path over random access strings ----- *)

(* The suite golden below covers the default Inclusive, readahead-0
   configuration; this property drives the paths it cannot reach — DEMOTE
   demotions and the readahead/prefetch machinery — through both kernels.
   The reference hierarchy is built from Lru.reference caches, so it
   takes the generic closure path; observables must match exactly. *)

let topo_small =
  Topology.make ~compute_nodes:4 ~io_nodes:2 ~storage_nodes:2 ~block_elems:8
    ~io_cache_blocks:8 ~storage_cache_blocks:12 ()

let hierarchy_observables h =
  let threads = Topology.threads (Hierarchy.topology h) in
  ( Hierarchy.elapsed_us h,
    Array.init threads (fun t -> Hierarchy.thread_clock_us h t),
    Array.init (Hierarchy.io_nodes h) (Hierarchy.l1_stats_of h),
    Array.init (Hierarchy.storage_nodes h) (Hierarchy.l2_stats_of h),
    Hierarchy.disk_reads h,
    Hierarchy.prefetches h,
    Hierarchy.prefetch_hits h )

let access_string_arb =
  QCheck.make
    ~print:(fun (demote, readahead, accs) ->
      Printf.sprintf "demote=%b readahead=%d %s" demote readahead
        (String.concat ","
           (List.map (fun (t, f, i) -> Printf.sprintf "%d:%d:%d" t f i) accs)))
    QCheck.Gen.(
      let* demote = bool in
      let* readahead = oneofl [ 0; 2 ] in
      let* accs =
        list_size (int_range 0 300)
          (let* t = int_range 0 3 in
           let* f = int_range 0 2 in
           let* i = int_range 0 40 in
           return (t, f, i))
      in
      return (demote, readahead, accs))

let prop_hierarchy_fast_matches_generic =
  QCheck.Test.make ~count:100
    ~name:"hierarchy: devirtualized path = generic path (demote, readahead)"
    access_string_arb
    (fun (demote, readahead, accs) ->
      let protocol =
        if demote then Hierarchy.Demote_exclusive else Hierarchy.Inclusive
      in
      let fast = Hierarchy.create ~protocol ~readahead topo_small in
      let reference nodes capacity =
        Array.init nodes (fun _ -> Lru.reference ~capacity)
      in
      let generic =
        Hierarchy.create ~protocol ~readahead
          ~l1:(reference topo_small.Topology.io_nodes topo_small.Topology.io_cache_blocks)
          ~l2:
            (reference topo_small.Topology.storage_nodes
               topo_small.Topology.storage_cache_blocks)
          topo_small
      in
      List.iter
        (fun (t, f, i) ->
          let b = Block.make ~file:f ~index:i in
          Hierarchy.access fast ~thread:t b;
          Hierarchy.access generic ~thread:t b)
        accs;
      hierarchy_observables fast = hierarchy_observables generic)

(* ---- full-suite Run.result identity golden ------------------------------ *)

(* Run.Custom leaves Policy.fast = None, so the reference run replays the
   whole workload through the generic dispatch path with the retained
   closure LRU.  Every field of the result record must be identical —
   clocks to the last IEEE bit. *)

let check_app_results config app =
  List.iter
    (fun (mode, layouts) ->
      List.iter
        (fun sample ->
          let fast = Run.run ~caching:Run.Lru ~sample ~config ~layouts app in
          let refr =
            Run.run
              ~caching:(Run.Custom (Lru.reference, Lru.reference))
              ~sample ~config ~layouts app
          in
          checkb
            (Printf.sprintf "%s (%s, sample %d)" app.App.name mode sample)
            true
            (fast = refr))
        [ 1; 8 ])
    [
      ("default", Experiment.default_layouts app);
      ("inter", Experiment.inter_layouts config app);
    ]

let test_golden_run_suite () =
  (* fan the 16 apps over the worker pool; each task is the full
     mode x sample grid for one app *)
  ignore
    (Parallel.map ~jobs:test_jobs
       (fun app ->
         check_app_results Config.default app;
         app.App.name)
       (Array.of_list Suite.all))

(* ---- zero steady-state allocation (Gc.minor_words) ---------------------- *)

let test_flat_lru_no_alloc () =
  let c = Flat_lru.create ~capacity:64 in
  (* fill past capacity so the workload below keeps evicting *)
  for i = 0 to 255 do
    ignore (Flat_lru.insert c i)
  done;
  let work () =
    for i = 0 to 49_999 do
      let k = i land 511 in
      ignore (Flat_lru.touch c k);
      ignore (Flat_lru.insert c k);
      ignore (Flat_lru.contains c (k + 1));
      if i land 7 = 0 then begin
        ignore (Flat_lru.remove c k);
        ignore (Flat_lru.insert_cold c k)
      end
    done
  in
  (* one untimed pass so closures and any lazy setup are in place *)
  work ();
  let delta f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let nothing () = () in
  let baseline = delta nothing in
  let measured = delta work in
  (* the measurement itself boxes the first counter read; the 50k-op
     workload must add nothing on top of that *)
  Alcotest.(check (float 0.))
    "minor words allocated by 50k flat-LRU ops" baseline measured

(* ---- karma hints: flat accumulation = reference Hashtbl+sort ------------ *)

(* the pre-flat implementation, kept verbatim as the executable spec *)
let reference_hints ~io_of_thread ~io_nodes weighted_streams =
  let hints = Array.make io_nodes [] in
  List.iter
    (fun (weight, streams) ->
      Array.iteri
        (fun thread blocks ->
          if Array.length blocks > 0 then begin
            let per_file = Hashtbl.create 4 in
            Array.iter
              (fun b ->
                let file = Block.file b and idx = Block.index b in
                match Hashtbl.find_opt per_file file with
                | None -> Hashtbl.replace per_file file (idx, idx, 1)
                | Some (lo, hi, n) ->
                  Hashtbl.replace per_file file (min lo idx, max hi idx, n + 1))
              blocks;
            let io = io_of_thread thread in
            Hashtbl.fold (fun file range acc -> (file, range) :: acc) per_file []
            |> List.sort (fun (fa, (la, _, _)) (fb, (lb, _, _)) ->
                   compare (fb, lb) (fa, la))
            |> List.iter (fun (file, (lo, hi, n)) ->
                   let hint =
                     {
                       Karma.file;
                       lo_block = lo;
                       hi_block = hi;
                       accesses = float_of_int (n * weight);
                     }
                   in
                   hints.(io) <- hint :: hints.(io))
          end)
        streams)
    weighted_streams;
  hints

let streams_arb =
  QCheck.make
    ~print:(fun nests ->
      String.concat " | "
        (List.map
           (fun (w, streams) ->
             Printf.sprintf "w%d:%s" w
               (String.concat ";"
                  (Array.to_list
                     (Array.map
                        (fun s -> string_of_int (Array.length s))
                        streams))))
           nests))
    QCheck.Gen.(
      list_size (int_range 0 3)
        (let* weight = int_range 1 3 in
         let* streams =
           array_size (return 4)
             (array_size (int_range 0 15)
                (let* f = int_range 0 4 in
                 let* i = int_range 0 30 in
                 return (Block.make ~file:f ~index:i)))
         in
         return (weight, streams)))

let prop_karma_hints_match_reference =
  QCheck.Test.make ~count:200
    ~name:"karma hints: flat accumulation = reference Hashtbl+sort" streams_arb
    (fun weighted_streams ->
      let io_of_thread t = t mod 2 in
      let fast =
        Run.karma_hints_of_streams ~io_of_thread ~io_nodes:2 weighted_streams
      in
      let refr = reference_hints ~io_of_thread ~io_nodes:2 weighted_streams in
      fast = refr)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_flat_lru_matches_reference;
      prop_hierarchy_fast_matches_generic;
      prop_karma_hints_match_reference;
    ]

let suite =
  [
    ("flat-lru validation and fast fields", `Quick, test_flat_lru_validation);
    ("flat-lru zero steady-state allocation", `Quick, test_flat_lru_no_alloc);
    ("golden run equality (16-app suite)", `Slow, test_golden_run_suite);
  ]
  @ qsuite
