open Flo_storage
open Flo_workloads
open Flo_engine
module A = Flo_analysis.Analyzer
module E = Flo_obs.Event

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkm = Alcotest.(check (array (array int)))

(* ---- Reuse: hand-computed stack distances ------------------------------ *)

let test_reuse_distances () =
  let r = Flo_analysis.Reuse.create () in
  let t block = Flo_analysis.Reuse.touch r ~file:0 ~block in
  let expect name want got =
    Alcotest.(check (option int)) name want got
  in
  (* stream: a b c a a b d c  (classic LRU stack-distance example) *)
  expect "a cold" None (t 0);
  expect "b cold" None (t 1);
  expect "c cold" None (t 2);
  expect "a after b,c" (Some 2) (t 0);
  expect "a immediate" (Some 0) (t 0);
  expect "b after c,a" (Some 2) (t 1);
  expect "d cold" None (t 3);
  expect "c after a,b,d" (Some 3) (t 2);
  check "touches" 8 (Flo_analysis.Reuse.touches r);
  check "cold" 4 (Flo_analysis.Reuse.cold_touches r);
  check "reuses" 4 (Flo_analysis.Reuse.reuses r);
  check "distinct" 4 (Flo_analysis.Reuse.distinct_blocks r);
  (* distances 0,2,2,3: an LRU cache of >= 4 blocks serves all four *)
  check "below capacity 4" 4 (Flo_analysis.Reuse.below r 4);
  check "below capacity 1" 1 (Flo_analysis.Reuse.below r 1);
  (* same index on a different file is a different block *)
  expect "file split" None (Flo_analysis.Reuse.touch r ~file:1 ~block:0);
  check "distinct after split" 5 (Flo_analysis.Reuse.distinct_blocks r)

(* ---- Sharing: hand-computed 2-thread / 1-shared-cache scenario --------- *)

let test_sharing_hand_example () =
  let s = Flo_analysis.Sharing.create () in
  let touch thread block hit = Flo_analysis.Sharing.touch s ~thread ~file:0 ~block ~hit in
  let evict thread block = Flo_analysis.Sharing.evict s ~thread ~file:0 ~block in
  (* two threads over blocks {0,1,2}; cache holds 2 *)
  touch 0 0 false;                      (* t0 pulls b0 *)
  touch 1 0 true;                       (* t1 reuses it: b0 is shared *)
  touch 0 1 false;                      (* t0 pulls b1 *)
  evict 0 0;                            (* ... evicting b0 *)
  touch 1 0 false;                      (* t1 re-misses b0: conflict 0 -> 1 *)
  evict 1 1;                            (* b1 leaves while serving t1 *)
  touch 1 2 false;                      (* t1 pulls b2 (t1-private) *)
  touch 0 1 false;                      (* t0 re-misses b1: conflict 1 -> 0 *)
  evict 0 2;
  touch 0 2 true;                       (* HIT after evict: re-installed, no conflict *)
  check "threads" 2 (Flo_analysis.Sharing.threads s);
  check "touches" 7 (Flo_analysis.Sharing.touches s);
  check "evictions" 3 (Flo_analysis.Sharing.evictions s);
  check "distinct blocks" 3 (Flo_analysis.Sharing.distinct_blocks s);
  (* t0 touched {0,1,2}, t1 touched {0,2}; both: {0,2} *)
  checkm "shared matrix" [| [| 3; 2 |]; [| 2; 2 |] |] (Flo_analysis.Sharing.shared_among s [ 0; 1 ]);
  checkm "conflict matrix" [| [| 0; 1 |]; [| 1; 0 |] |]
    (Flo_analysis.Sharing.conflicts_among s [ 0; 1 ]);
  check "cross shared" 2 (Flo_analysis.Sharing.cross_shared s);
  check "shared blocks" 2 (Flo_analysis.Sharing.shared_blocks s);
  check "total conflicts" 2 (Flo_analysis.Sharing.total_conflicts s);
  Alcotest.(check (list int)) "active" [ 0; 1 ] (Flo_analysis.Sharing.active_threads s)

(* ---- Sharing: properties ----------------------------------------------- *)

(* op = (thread, block, Evict | Touch hit) over 4 threads x 10 blocks *)
let sharing_ops_arb =
  QCheck.list_of_size (QCheck.Gen.int_range 0 300)
    (QCheck.triple (QCheck.int_range 0 3) (QCheck.int_range 0 9)
       (QCheck.option QCheck.bool))

(* every id from 0 to the largest seen *)
let all_ids s = List.init (Flo_analysis.Sharing.threads s) Fun.id

let build_sharing ops =
  let s = Flo_analysis.Sharing.create () in
  List.iter
    (fun (thread, block, op) ->
      match op with
      | None -> Flo_analysis.Sharing.evict s ~thread ~file:0 ~block
      | Some hit -> Flo_analysis.Sharing.touch s ~thread ~file:0 ~block ~hit)
    ops;
  s

let prop_sharing_matrix_laws =
  QCheck.Test.make ~name:"sharing matrix symmetric, diagonal = distinct counts"
    ~count:200 sharing_ops_arb (fun ops ->
      let s = build_sharing ops in
      let m = Flo_analysis.Sharing.shared_among s (all_ids s) in
      let n = Array.length m in
      let sym = ref true and diag = ref true and cross = ref 0 in
      for i = 0 to n - 1 do
        if m.(i).(i) <> Flo_analysis.Sharing.distinct_of s ~thread:i then diag := false;
        for j = 0 to n - 1 do
          if m.(i).(j) <> m.(j).(i) then sym := false;
          if i < j then cross := !cross + m.(i).(j)
        done
      done;
      let c = Flo_analysis.Sharing.conflicts_among s (all_ids s) in
      let conflict_ok = ref true and total = ref 0 in
      Array.iteri
        (fun i row ->
          if row.(i) <> 0 then conflict_ok := false;  (* never self-conflict *)
          Array.iter (fun v -> total := !total + v) row)
        c;
      !sym && !diag
      && !cross = Flo_analysis.Sharing.cross_shared s
      && !conflict_ok
      && !total = Flo_analysis.Sharing.total_conflicts s
      && !total <= Flo_analysis.Sharing.evictions s
      && Flo_analysis.Sharing.shared_blocks s <= Flo_analysis.Sharing.distinct_blocks s)

(* the report's matrices over a cache's active threads: the listed
   rows/columns of the matrices over every id up to the largest, in list
   order *)
let prop_sharing_submatrix_law =
  QCheck.Test.make ~name:"sharing submatrices = listed rows/columns of the full"
    ~count:200
    QCheck.(pair sharing_ops_arb (small_list (int_range 0 5)))
    (fun (ops, ids) ->
      let s = build_sharing ops in
      let ids = List.sort_uniq compare ids in
      let sub m =
        let n = Array.length m in
        let cell i j = if i < n && j < n then m.(i).(j) else 0 in
        Array.of_list (List.map (fun i -> Array.of_list (List.map (cell i) ids)) ids)
      in
      let full among = among s (all_ids s) in
      Flo_analysis.Sharing.shared_among s ids = sub (full Flo_analysis.Sharing.shared_among)
      && Flo_analysis.Sharing.conflicts_among s ids
         = sub (full Flo_analysis.Sharing.conflicts_among))

(* Locality's counts against a from-scratch recount of the same touches;
   small ranges so blocks repeat within and across threads *)
let prop_locality_counting_law =
  QCheck.Test.make ~name:"locality counts = recount of the touches" ~count:300
    QCheck.(small_list (triple (int_bound 3) (int_bound 2) (int_bound 5)))
    (fun touches ->
      let module L = Flo_analysis.Locality in
      let l = L.create () in
      List.iter (fun (thread, file, block) -> L.touch l ~thread ~file ~block) touches;
      let triples = List.sort_uniq compare touches in
      let pairs = List.sort_uniq compare (List.map (fun (t, f, _) -> (t, f)) triples) in
      let count p = List.length (List.filter p triples) in
      let blocks = List.sort_uniq compare (List.map (fun (_, f, b) -> (f, b)) triples) in
      let degree (f, b) = count (fun (_, f', b') -> f = f' && b = b') in
      let per_thread =
        List.sort_uniq compare (List.map fst pairs)
        |> List.map (fun th ->
               ( th,
                 List.filter_map
                   (fun (t, f) ->
                     if t = th then Some (f, count (fun (t', f', _) -> t' = t && f' = f))
                     else None)
                   pairs ))
      in
      L.requests l = List.length touches
      && List.for_all
           (fun (t, f) ->
             L.distinct l ~thread:t ~file:f = count (fun (t', f', _) -> t' = t && f' = f))
           (List.concat_map (fun t -> List.init 4 (fun f -> (t, f))) [ 0; 1; 2; 3; 4 ])
      && L.per_thread l = per_thread
      && L.distinct_blocks l = List.length blocks
      && L.shared_blocks l = List.length (List.filter (fun b -> degree b >= 2) blocks)
      && L.cross_pairs l
         = List.fold_left (fun acc b -> acc + (degree b * (degree b - 1) / 2)) 0 blocks)

(* ---- Analyzer views: every reading = a from-scratch recount ----------- *)

(* Random streams over 2 layers x 3 nodes, threads 0-130, and few blocks
   (so they repeat within and across threads).  Node 0 takes most of the
   events, so its views see more than 63 distinct threads and their toucher
   sets cross the bitsets' word boundary.  Evictions may precede a block's
   first lookup; Disk_read and unknown kinds must leave the views alone. *)
let view_event_gen =
  let open QCheck.Gen in
  let* kind =
    frequency
      [
        (3, return E.Access); (3, return E.Hit); (3, return E.Miss); (2, return E.Evict);
        (1, return E.Disk_read); (1, return (E.Other "spill"));
      ]
  in
  let* layer = oneofl [ E.L1; E.L2 ] in
  let* node = frequency [ (4, return 0); (1, return 1); (1, return 2) ] in
  let* thread = int_range 0 130 in
  let* file = int_range 0 2 in
  let* block = int_range 0 5 in
  return (E.make ~time_us:0. ~kind ~layer ~node ~thread ~file ~block ())

let pp_view_event (e : E.t) =
  Printf.sprintf "%s %s/%d t%d %d:%d" (E.kind_to_string e.E.kind)
    (E.layer_to_string e.E.layer) e.E.node e.E.thread e.E.file e.E.block

(* a stream and a cut: the law reads every view at the cut, feeds the
   rest, and reads again *)
let view_stream_arb =
  QCheck.make
    ~print:(fun (evs, cut) ->
      Printf.sprintf "cut %d: %s" cut (String.concat "; " (List.map pp_view_event evs)))
    QCheck.Gen.(
      let* evs = list_size (int_range 0 700) view_event_gen in
      let* cut = int_range 0 (List.length evs) in
      return (evs, cut))

module Iset = Set.Make (Int)

(* LRU stack distance of every lookup, by brute force: the distinct blocks
   named since the block's previous lookup ([None] when cold) *)
let brute_distances stream =
  let arr = Array.of_list stream in
  Array.to_list
    (Array.mapi
       (fun i b ->
         let rec back j seen =
           if j < 0 then None
           else if arr.(j) = b then Some (List.length (List.sort_uniq compare seen))
           else back (j - 1) (arr.(j) :: seen)
         in
         back (i - 1) [])
       arr)

let reuse_hist distances =
  let h = Flo_obs.Histogram.create ~lo:1.0 ~gamma:2.0 ~buckets:32 () in
  List.iter (Option.iter (fun d -> Flo_obs.Histogram.add h (float_of_int d))) distances;
  h

let layer_rank = function E.L1 -> 0 | E.L2 -> 1 | E.Disk -> 2

(* the recount's reading of one cache, in the shape of the public API *)
type cache_reading = {
  c_threads : int;
  c_touches : int;
  c_evictions : int;
  c_distinct : int;
  c_shared : int array array;
  c_conflicts : int array array;
  c_cross : int;
  c_shared_blocks : int;
  c_active : int list;
  c_distinct_of : int list;  (* thread 0 .. c_threads - 1 *)
  c_reuse : (int * int * int * int array) option;  (* touches, cold, distinct, counts *)
}

let recount_cache evs (layer, node) =
  let touched = Hashtbl.create 16 and pending = Hashtbl.create 16 in
  let conflicts = Hashtbl.create 16 in
  let max_thread = ref (-1) and touches = ref 0 and evictions = ref 0 in
  let stream = ref [] in
  List.iter
    (fun (e : E.t) ->
      if e.E.layer = layer && e.E.node = node then begin
        let key = (e.E.file, e.E.block) in
        match e.E.kind with
        | E.Hit | E.Miss ->
          max_thread := max !max_thread e.E.thread;
          incr touches;
          stream := key :: !stream;
          (match Hashtbl.find_opt pending key with
          | Some ev ->
            Hashtbl.remove pending key;
            if e.E.kind = E.Miss && ev <> e.E.thread then
              Hashtbl.replace conflicts (ev, e.E.thread)
                (1 + Option.value ~default:0 (Hashtbl.find_opt conflicts (ev, e.E.thread)))
          | None -> ());
          let set = Option.value ~default:Iset.empty (Hashtbl.find_opt touched key) in
          Hashtbl.replace touched key (Iset.add e.E.thread set)
        | E.Evict ->
          max_thread := max !max_thread e.E.thread;
          incr evictions;
          Hashtbl.replace pending key e.E.thread
        | _ -> ()
      end)
    evs;
  let n = !max_thread + 1 in
  let sets = Hashtbl.fold (fun _ set acc -> set :: acc) touched [] in
  let shared = Array.make_matrix n n 0 in
  List.iter
    (fun set ->
      Iset.iter (fun i -> Iset.iter (fun j -> shared.(i).(j) <- shared.(i).(j) + 1) set) set)
    sets;
  let degree s = Iset.cardinal s in
  let stream = List.rev !stream in
  let distances = brute_distances stream in
  {
    c_threads = n;
    c_touches = !touches;
    c_evictions = !evictions;
    c_distinct = List.length sets;
    c_shared = shared;
    c_conflicts =
      Array.init n (fun i ->
          Array.init n (fun j -> Option.value ~default:0 (Hashtbl.find_opt conflicts (i, j))));
    c_cross = List.fold_left (fun acc s -> acc + (degree s * (degree s - 1) / 2)) 0 sets;
    c_shared_blocks = List.length (List.filter (fun s -> degree s > 1) sets);
    c_active =
      Iset.elements
        (Hashtbl.fold
           (fun (i, j) _ acc -> Iset.add i (Iset.add j acc))
           conflicts
           (List.fold_left Iset.union Iset.empty sets));
    c_distinct_of = List.init n (fun i -> List.length (List.filter (Iset.mem i) sets));
    c_reuse =
      (if stream = [] then None
       else
         Some
           ( List.length stream,
             List.length (List.filter Option.is_none distances),
             List.length (List.sort_uniq compare stream),
             Flo_obs.Histogram.counts (reuse_hist distances) ));
  }

let read_cache a c =
  let module S = Flo_analysis.Sharing in
  let module R = Flo_analysis.Reuse in
  let s = Option.get (A.sharing_of a c) in
  let n = S.threads s in
  {
    c_threads = n;
    c_touches = S.touches s;
    c_evictions = S.evictions s;
    c_distinct = S.distinct_blocks s;
    c_shared = S.shared_among s (List.init n Fun.id);
    c_conflicts = S.conflicts_among s (List.init n Fun.id);
    c_cross = S.cross_shared s;
    c_shared_blocks = S.shared_blocks s;
    c_active = S.active_threads s;
    c_distinct_of = List.init n (fun thread -> S.distinct_of s ~thread);
    c_reuse =
      Option.map
        (fun r ->
          ( R.touches r, R.cold_touches r, R.distinct_blocks r,
            Flo_obs.Histogram.counts (R.histogram r) ))
        (A.reuse_of a c);
  }

(* every public reading of the analyzer, and the recount's *)
let read_views a =
  let module L = Flo_analysis.Locality in
  let l = A.locality a in
  let caches = List.map (fun (c : A.cache) -> (c.A.layer, c.A.node)) (A.caches a) in
  ( caches,
    ( L.requests l, L.threads l, L.files l, L.per_thread l,
      (L.distinct_blocks l, L.shared_blocks l, L.cross_pairs l) ),
    List.map (fun (layer, node) -> read_cache a { A.layer; node }) caches,
    List.map
      (fun layer ->
        ( A.cross_shared_at a layer, A.conflicts_at a layer,
          Flo_obs.Histogram.counts (A.reuse_histogram_at a layer) ))
      [ E.L1; E.L2 ] )

let recount_views evs =
  let caches =
    List.filter_map
      (fun (e : E.t) ->
        match e.E.kind with
        | E.Hit | E.Miss | E.Evict -> Some (e.E.layer, e.E.node)
        | _ -> None)
      evs
    |> List.sort_uniq (fun (l, n) (l', n') -> compare (layer_rank l, n) (layer_rank l', n'))
  in
  let touches =
    List.sort_uniq compare
      (List.filter_map
         (fun (e : E.t) ->
           if e.E.kind = E.Access then Some (e.E.thread, e.E.file, e.E.block) else None)
         evs)
  in
  let requests = List.length (List.filter (fun (e : E.t) -> e.E.kind = E.Access) evs) in
  let blocks = List.sort_uniq compare (List.map (fun (_, f, b) -> (f, b)) touches) in
  let degree fb = List.length (List.filter (fun (_, f, b) -> (f, b) = fb) touches) in
  let threads = List.sort_uniq compare (List.map (fun (t, _, _) -> t) touches) in
  let per_thread =
    List.map
      (fun th ->
        let files =
          List.sort_uniq compare
            (List.filter_map (fun (t, f, _) -> if t = th then Some f else None) touches)
        in
        ( th,
          List.map
            (fun f -> (f, List.length (List.filter (fun (t, f', _) -> t = th && f' = f) touches)))
            files ))
      threads
  in
  let readings = List.map (recount_cache evs) caches in
  let layer_sum layer f =
    List.fold_left2
      (fun acc (l, _) r -> if l = layer then acc + f r else acc)
      0 caches readings
  in
  (* a layer without lookups reads as the empty merge *)
  let layer_hist layer =
    let counts =
      List.concat
        (List.map2
           (fun (l, _) r ->
             match r.c_reuse with
             | Some (_, _, _, counts) when l = layer -> [ counts ]
             | _ -> [])
           caches readings)
    in
    match counts with
    | [] -> Flo_obs.Histogram.counts (Flo_obs.Histogram.merge_list [])
    | c :: rest -> List.fold_left (Array.map2 ( + )) c rest
  in
  ( caches,
    ( requests,
      List.fold_left (fun acc t -> max acc (t + 1)) 0 threads,
      List.sort_uniq compare (List.map (fun (_, f, _) -> f) touches),
      per_thread,
      ( List.length blocks,
        List.length (List.filter (fun b -> degree b >= 2) blocks),
        List.fold_left (fun acc b -> acc + (degree b * (degree b - 1) / 2)) 0 blocks ) ),
    readings,
    List.map
      (fun layer ->
        ( layer_sum layer (fun r -> r.c_cross),
          layer_sum layer (fun r ->
              Array.fold_left (Array.fold_left ( + )) 0 r.c_conflicts),
          layer_hist layer ))
      [ E.L1; E.L2 ] )

let prop_views_recount_law =
  QCheck.Test.make ~name:"analyzer views = recount of the stream" ~count:150
    view_stream_arb (fun (evs, cut) ->
      let a = A.create () in
      let prefix = List.filteri (fun i _ -> i < cut) evs in
      List.iter (A.feed a) prefix;
      let at_cut = read_views a in
      List.iter (A.feed a) (List.filteri (fun i _ -> i >= cut) evs);
      at_cut = recount_views prefix && read_views a = recount_views evs)

(* ---- Golden trace fixture: exact values -------------------------------- *)

(* data/golden_trace.jsonl is a hand-written 9-request trace: 2 threads over
   file 0 blocks {0..3}, one L1 (cap 2) and one L2 (cap 3).  Every number
   below is derived by hand in the fixture's construction. *)
(* cwd is [_build/default/test] under [dune runtest], the workspace root
   under [dune exec test/main.exe] *)
let data_path name =
  if Sys.file_exists ("data/" ^ name) then "data/" ^ name else "test/data/" ^ name

let load_golden () =
  match A.load_file ~keep_events:true (data_path "golden_trace.jsonl") with
  | Ok a -> a
  | Error e ->
    Alcotest.failf "golden trace did not parse: %s" (A.load_error_to_string e)

let l1_0 = { A.layer = E.L1; node = 0 }
let l2_0 = { A.layer = E.L2; node = 0 }

let test_golden_trace_headline () =
  let a = load_golden () in
  check "events" 39 (A.event_count a);
  check "requests" 9 (A.kind_count a E.Access);
  check "l1+l2 hits" 4 (A.kind_count a E.Hit);
  check "l1+l2 misses" 13 (A.kind_count a E.Miss);
  check "evictions" 8 (A.kind_count a E.Evict);
  check "disk reads" 5 (A.kind_count a E.Disk_read);
  Alcotest.(check (float 1e-9)) "disk time" 25000. (A.total_disk_us a);
  let lo, hi = A.time_span a in
  Alcotest.(check (pair (float 1e-9) (float 1e-9))) "span" (0., 450.) (lo, hi);
  Alcotest.(check (list string)) "caches" [ "l1/0"; "l2/0" ]
    (List.map A.cache_name (A.caches a))

let test_golden_trace_reuse () =
  let a = load_golden () in
  let r1 = Option.get (A.reuse_of a l1_0) in
  (* L1 stream: 0 0 1 2 0 1 2 3 0 -> distances -,0,-,-,2,2,2,-,3 *)
  check "l1 touches" 9 (Flo_analysis.Reuse.touches r1);
  check "l1 cold" 4 (Flo_analysis.Reuse.cold_touches r1);
  check "l1 reuses" 5 (Flo_analysis.Reuse.reuses r1);
  check "l1 distinct" 4 (Flo_analysis.Reuse.distinct_blocks r1);
  Alcotest.(check (float 1e-9)) "l1 distance sum" 9.
    (Flo_obs.Histogram.sum (Flo_analysis.Reuse.histogram r1));
  Alcotest.(check (float 1e-9)) "l1 distance max" 3.
    (Flo_obs.Histogram.max_value (Flo_analysis.Reuse.histogram r1));
  let r2 = Option.get (A.reuse_of a l2_0) in
  (* L2 stream: 0 1 2 0 1 2 3 0 -> distances -,-,-,2,2,2,-,3 *)
  check "l2 touches" 8 (Flo_analysis.Reuse.touches r2);
  check "l2 cold" 4 (Flo_analysis.Reuse.cold_touches r2);
  check "l2 reuses" 4 (Flo_analysis.Reuse.reuses r2);
  Alcotest.(check (float 1e-9)) "l2 distance sum" 9.
    (Flo_obs.Histogram.sum (Flo_analysis.Reuse.histogram r2))

let test_golden_trace_sharing () =
  let a = load_golden () in
  let s1 = Option.get (A.sharing_of a l1_0) in
  (* t0 touched {0,1,3}, t1 touched {0,2}: only b0 is co-touched *)
  checkm "l1 shared" [| [| 3; 1 |]; [| 1; 2 |] |] (Flo_analysis.Sharing.shared_among s1 [ 0; 1 ]);
  (* t1's evict of b0 re-missed by t0 (and vice versa) *)
  checkm "l1 conflicts" [| [| 0; 1 |]; [| 1; 0 |] |]
    (Flo_analysis.Sharing.conflicts_among s1 [ 0; 1 ]);
  check "l1 evictions" 6 (Flo_analysis.Sharing.evictions s1);
  check "l1 cross" 1 (Flo_analysis.Sharing.cross_shared s1);
  let s2 = Option.get (A.sharing_of a l2_0) in
  checkm "l2 shared" [| [| 3; 1 |]; [| 1; 2 |] |] (Flo_analysis.Sharing.shared_among s2 [ 0; 1 ]);
  (* t0 evicted b0 from L2; t1's final request re-missed it *)
  checkm "l2 conflicts" [| [| 0; 1 |]; [| 0; 0 |] |]
    (Flo_analysis.Sharing.conflicts_among s2 [ 0; 1 ]);
  check "l2 evictions" 2 (Flo_analysis.Sharing.evictions s2);
  check "layer cross l1" 1 (A.cross_shared_at a E.L1);
  check "layer cross l2" 1 (A.cross_shared_at a E.L2);
  check "layer conflicts l1" 2 (A.conflicts_at a E.L1);
  check "layer conflicts l2" 1 (A.conflicts_at a E.L2)

let test_golden_trace_locality () =
  let a = load_golden () in
  let l = A.locality a in
  check "requests" 9 (Flo_analysis.Locality.requests l);
  check "threads" 2 (Flo_analysis.Locality.threads l);
  Alcotest.(check (list int)) "files" [ 0 ] (Flo_analysis.Locality.files l);
  check "t0 distinct" 3 (Flo_analysis.Locality.distinct l ~thread:0 ~file:0);
  check "t1 distinct" 2 (Flo_analysis.Locality.distinct l ~thread:1 ~file:0);
  check "t0 total" 3 (Flo_analysis.Locality.total_distinct l ~thread:0)

(* ---- Live analysis vs. Run counters ------------------------------------ *)

let small_app =
  let d = Flo_poly.Data_space.make [| 64; 64 |] in
  let space = Flo_poly.Iter_space.make [| (0, 63); (0, 63) |] in
  App.make ~name:"toy" ~description:"column sweep" ~group:App.High
    (Flo_poly.Program.make ~name:"toy"
       [ Flo_poly.Program.declare ~id:0 ~name:"a" d; Flo_poly.Program.declare ~id:1 ~name:"b" d ]
       [
         Flo_poly.Loop_nest.make ~weight:2 ~parallel_dim:0 space
           [ Flo_poly.Access.ji ~array_id:0; Flo_poly.Access.ij ~array_id:1 ];
       ])

(* the Fig. 6 shape of test_engine, but with 32-element blocks so the two
   threads of one column pair touch overlapping block sets *)
let fig6_config =
  Config.with_topology Config.default
    (Topology.make ~compute_nodes:4 ~io_nodes:2 ~storage_nodes:1 ~block_elems:32
       ~io_cache_blocks:4 ~storage_cache_blocks:16 ())

let analyzed_run ?keep_events layouts =
  let a = A.create ?keep_events () in
  let mapping = Experiment.random_mapping ~seed:1 fig6_config in
  let r =
    Run.run ~mapping ~readahead:2 ~sink:(A.sink a) ~config:fig6_config ~layouts
      small_app
  in
  (a, r)

let test_live_analysis_matches_run () =
  let a, r = analyzed_run (Experiment.default_layouts small_app) in
  check "requests" r.Run.block_requests
    (Flo_analysis.Locality.requests (A.locality a));
  check "access events" r.Run.block_requests (A.kind_count a E.Access);
  check "hits" (r.Run.l1.Stats.hits + r.Run.l2.Stats.hits) (A.kind_count a E.Hit);
  check "misses" (r.Run.l1.Stats.misses + r.Run.l2.Stats.misses)
    (A.kind_count a E.Miss);
  check "disk reads" r.Run.disk_reads (A.kind_count a E.Disk_read);
  check "threads" (Array.length r.Run.thread_us)
    (Flo_analysis.Locality.threads (A.locality a));
  (* every L1 touch is a lookup: reuse streams cover hits + misses *)
  let l1_touches =
    List.fold_left
      (fun acc c ->
        if c.A.layer = E.L1 then
          acc + Flo_analysis.Reuse.touches (Option.get (A.reuse_of a c))
        else acc)
      0 (A.caches a)
  in
  check "l1 reuse stream complete" r.Run.l1.Stats.accesses l1_touches

(* ---- Offline load_file agrees with the live sink ----------------------- *)

let test_offline_equals_live () =
  let live, _ = analyzed_run (Experiment.default_layouts small_app) in
  let path = Filename.temp_file "flopt_analysis" ".jsonl" in
  let mapping = Experiment.random_mapping ~seed:1 fig6_config in
  ignore
    (Flo_obs.Sink.with_jsonl path (fun sink ->
         Run.run ~mapping ~readahead:2 ~sink ~config:fig6_config
           ~layouts:(Experiment.default_layouts small_app) small_app));
  let off =
    match A.load_file path with
    | Ok a -> a
    | Error e -> Alcotest.failf "trace did not parse: %s" (A.load_error_to_string e)
  in
  Sys.remove path;
  check "events" (A.event_count live) (A.event_count off);
  List.iter
    (fun k -> check "kind count" (A.kind_count live k) (A.kind_count off k))
    [ E.Access; E.Hit; E.Miss; E.Evict; E.Demote; E.Prefetch; E.Disk_read ];
  List.iter
    (fun layer ->
      check "cross shared" (A.cross_shared_at live layer) (A.cross_shared_at off layer);
      check "conflicts" (A.conflicts_at live layer) (A.conflicts_at off layer);
      Alcotest.(check (array int)) "reuse histogram"
        (Flo_obs.Histogram.counts (A.reuse_histogram_at live layer))
        (Flo_obs.Histogram.counts (A.reuse_histogram_at off layer)))
    [ E.L1; E.L2 ];
  Alcotest.(check (list (pair int (list (pair int int))))) "locality"
    (Flo_analysis.Locality.per_thread (A.locality live))
    (Flo_analysis.Locality.per_thread (A.locality off))

(* ---- The acceptance shape: optimized layout shares less ---------------- *)

let test_optimized_layout_shares_less () =
  let d, _ = analyzed_run (Experiment.default_layouts small_app) in
  let o, _ = analyzed_run (Experiment.inter_layouts fig6_config small_app) in
  let dc = A.cross_shared_at d E.L2 and oc = A.cross_shared_at o E.L2 in
  checkb
    (Printf.sprintf "optimized cross-thread sharing %d < default %d" oc dc)
    true (oc < dc);
  checkb "default sharing nonzero" true (dc > 0);
  checkb "optimized conflicts no worse" true
    (A.conflicts_at o E.L2 <= A.conflicts_at d E.L2)

(* ---- Golden regression: the analyze report ----------------------------- *)

let render_fig6_analysis () =
  let d, _ = analyzed_run (Experiment.default_layouts small_app) in
  let o, _ = analyzed_run (Experiment.inter_layouts fig6_config small_app) in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "==== default layouts ====\n\n";
  Buffer.add_string buf (Report.analysis_summary d);
  Buffer.add_string buf "==== optimized (inter-node) layouts ====\n\n";
  Buffer.add_string buf (Report.analysis_summary o);
  Buffer.add_string buf
    (Printf.sprintf
       "==== delta ====\n\nL2 cross-thread shared: %d -> %d\nL2 conflicts: %d -> %d\n"
       (A.cross_shared_at d E.L2) (A.cross_shared_at o E.L2)
       (A.conflicts_at d E.L2) (A.conflicts_at o E.L2));
  Buffer.contents buf

(* regenerate with:
   FLOPT_GOLDEN_UPDATE=$PWD/test dune exec test/main.exe -- test analysis -q *)
let test_fig6_golden_analysis () =
  let actual = render_fig6_analysis () in
  let path =
    if Sys.file_exists "golden_fig6_analysis.expected" then
      "golden_fig6_analysis.expected"
    else "test/golden_fig6_analysis.expected"
  in
  match Sys.getenv_opt "FLOPT_GOLDEN_UPDATE" with
  | Some dir ->
    let oc = open_out_bin (Filename.concat dir path) in
    output_string oc actual;
    close_out oc
  | None ->
    let expected =
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    in
    Alcotest.(check string) "analysis matches golden file" expected actual

(* ---- Perfetto export ---------------------------------------------------- *)

let count_sub hay needle =
  let n = String.length needle and h = String.length hay in
  let c = ref 0 in
  for i = 0 to h - n do
    if String.sub hay i n = needle then incr c
  done;
  !c

let test_perfetto_export () =
  let a = load_golden () in
  let json = String.trim (Flo_analysis.Perfetto.json_of_events (A.events a)) in
  checkb "object" true
    (String.length json > 2 && json.[0] = '{' && json.[String.length json - 1] = '}');
  check "balanced braces" (count_sub json "{") (count_sub json "}");
  check "balanced brackets" (count_sub json "[") (count_sub json "]");
  (* one complete slice per block request *)
  check "slices" 9 (count_sub json {|"ph":"X"|});
  (* instants: evictions + disk reads on the cache tracks *)
  check "instants" 13 (count_sub json {|"ph":"i"|});
  checkb "thread names" true (count_sub json {|"thread_name"|} >= 2);
  checkb "hit color present" true (count_sub json {|"cname":"good"|} >= 1);
  checkb "disk color present" true (count_sub json {|"cname":"terrible"|} >= 1);
  check "traceEvents key" 1 (count_sub json {|"traceEvents"|})

let test_analyzer_error_reporting () =
  let path = Filename.temp_file "flopt_bad" ".jsonl" in
  let oc = open_out path in
  output_string oc (E.to_json (E.make ~time_us:1. ~kind:E.Access ~layer:E.L1 ~node:0
                                 ~thread:0 ~file:0 ~block:0 ()) ^ "\n");
  output_string oc "\n";                  (* blank lines are fine *)
  output_string oc "{\"nope\"\n";
  close_out oc;
  (match A.load_file path with
  | Ok _ -> Alcotest.fail "malformed line accepted"
  | Error (A.Malformed { line; _ }) -> check "line number reported" 3 line
  | Error (A.Io msg) -> Alcotest.failf "expected Malformed, got Io: %s" msg);
  Sys.remove path;
  (* a directory opens but cannot be read: an I/O error, not an exception *)
  match A.load_file (Filename.dirname path) with
  | Error (A.Io _) -> ()
  | Ok _ | Error (A.Malformed _) -> Alcotest.fail "directory loaded as a trace"

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_sharing_matrix_laws; prop_sharing_submatrix_law; prop_locality_counting_law;
      prop_views_recount_law;
    ]

let suite =
  [
    ("reuse stack distances", `Quick, test_reuse_distances);
    ("sharing hand example", `Quick, test_sharing_hand_example);
    ("golden trace: headline", `Quick, test_golden_trace_headline);
    ("golden trace: reuse", `Quick, test_golden_trace_reuse);
    ("golden trace: sharing + conflicts", `Quick, test_golden_trace_sharing);
    ("golden trace: locality", `Quick, test_golden_trace_locality);
    ("live analysis matches run counters", `Quick, test_live_analysis_matches_run);
    ("offline load equals live sink", `Quick, test_offline_equals_live);
    ("optimized layout shares less (Fig. 6)", `Quick, test_optimized_layout_shares_less);
    ("fig. 6 golden analysis report", `Quick, test_fig6_golden_analysis);
    ("perfetto export well-formed", `Quick, test_perfetto_export);
    ("malformed trace line reported", `Quick, test_analyzer_error_reporting);
  ]
  @ qsuite

(* ---- perfetto edge shapes ------------------------------------------------ *)

module J = Flo_obs.Json

let test_perfetto_empty_trace () =
  (* no events must still yield a well-formed document with an (empty or
     metadata-only) traceEvents list, not a parse error or truncation *)
  let doc = J.parse (Flo_analysis.Perfetto.json_of_events []) in
  match J.member "traceEvents" doc with
  | Some (J.Arr items) ->
    checkb "no duration slices for an empty trace" true
      (List.for_all
         (fun item ->
           match J.member "ph" item with
           | Some (J.Str ph) -> ph = "M" (* metadata records only *)
           | _ -> false)
         items)
  | _ -> Alcotest.fail "traceEvents missing or not a list"

let test_perfetto_single_event () =
  let ev =
    E.make ~time_us:5. ~kind:E.Access ~layer:E.L1 ~node:0 ~thread:3 ~file:1
      ~block:7 ~latency_us:2.5 ()
  in
  let doc = J.parse (Flo_analysis.Perfetto.json_of_events [ ev ]) in
  match J.member "traceEvents" doc with
  | Some (J.Arr items) ->
    let slices =
      List.filter
        (fun item ->
          match J.member "ph" item with Some (J.Str "X") -> true | _ -> false)
        items
    in
    check "exactly one slice" 1 (List.length slices);
    (match J.member "ts" (List.hd slices) with
    | Some (J.Num ts) -> checkb "timestamp preserved" true (ts = 5.)
    | _ -> Alcotest.fail "slice has no ts")
  | _ -> Alcotest.fail "traceEvents missing or not a list"

(* byte-identity gate: the Perfetto export of the golden fixture is pinned
   by digest *)
let test_perfetto_golden_digest () =
  let events = A.events (load_golden ()) in
  Alcotest.(check string) "perfetto export md5" "02b64f28517305f495a6391434711663"
    (Digest.to_hex (Digest.string (Flo_analysis.Perfetto.json_of_events events)))

let test_bad_trace_fixture () =
  (* the checked-in fixture behind `flopt analyze` exit-code behavior: line 3
     is the malformed one (line 2 is blank and must be skipped, not counted
     as an error) *)
  match A.load_file (data_path "bad_trace.jsonl") with
  | Ok _ -> Alcotest.fail "bad fixture accepted"
  | Error (A.Malformed { line; msg }) ->
    check "offending line" 3 line;
    checkb "message not empty" true (String.length msg > 0)
  | Error (A.Io msg) -> Alcotest.failf "expected Malformed, got Io: %s" msg

(* ---- Reuse distances are computed when read ----------------------------- *)

(* a lookup stream with repeats, interleaved with events that never reach
   the reuse view: accesses, evictions and another cache's lookups *)
let test_reuse_read_mid_stream () =
  let a = A.create () in
  let eager = Flo_analysis.Reuse.create () in
  let c = { A.layer = E.L1; node = 1 } in
  let feed_range lo hi =
    for i = lo to hi - 1 do
      let file = i mod 3 and block = i * 7 mod 11 and thread = i mod 5 in
      let ev kind layer node = E.make ~time_us:(float_of_int i) ~kind ~layer ~node ~thread ~file ~block () in
      A.feed a (ev E.Access E.L1 1);
      A.feed a (ev (if i mod 4 = 0 then E.Hit else E.Miss) E.L1 1);
      ignore (Flo_analysis.Reuse.touch eager ~file ~block);
      if i mod 3 = 0 then A.feed a (ev E.Evict E.L1 1);
      A.feed a (ev E.Miss E.L2 0)
    done
  in
  let reading r =
    let module R = Flo_analysis.Reuse in
    ( (R.touches r, R.cold_touches r, R.reuses r, R.distinct_blocks r),
      Flo_obs.Histogram.counts (R.histogram r),
      Flo_obs.Histogram.sum (R.histogram r) )
  in
  let same name =
    let want = reading eager in
    checkb name true (reading (Option.get (A.reuse_of a c)) = want);
    (* a second read replays nothing twice *)
    checkb (name ^ ", read again") true (reading (Option.get (A.reuse_of a c)) = want);
    Alcotest.(check (array int)) (name ^ ", layer histogram")
      (Flo_obs.Histogram.counts (Flo_analysis.Reuse.histogram eager))
      (Flo_obs.Histogram.counts (A.reuse_histogram_at a E.L1))
  in
  feed_range 0 150;
  same "mid-stream";
  feed_range 150 400;
  same "end of stream";
  check "lookups counted once" 400 (Flo_analysis.Reuse.touches (Option.get (A.reuse_of a c)))

(* ---- Id ranges: out-of-range traces are malformed, wide ones stay small -- *)

let expect_malformed ~name ~line ~field result =
  match result with
  | Ok _ -> Alcotest.failf "%s: out-of-range trace accepted" name
  | Error (A.Malformed { line = l; msg }) ->
    check (name ^ ": offending line") line l;
    checkb (Printf.sprintf "%s: %S names %S" name msg field) true (count_sub msg field > 0)
  | Error (A.Io msg) -> Alcotest.failf "%s: expected Malformed, got Io: %s" name msg

let test_out_of_range_ids () =
  (* a negative thread once raised Invalid_argument out of the views, and a
     huge one sized the sharing matrix by its id *)
  expect_malformed ~name:"negative thread" ~line:1 ~field:"thread -1"
    (A.load_file (data_path "neg_thread_trace.jsonl"));
  expect_malformed ~name:"huge thread" ~line:2 ~field:"thread 40000000000"
    (A.load_file (data_path "huge_thread_trace.jsonl"));
  let ok = E.make ~time_us:0. ~kind:E.Hit ~layer:E.L2 ~node:0 ~thread:0 ~file:0 ~block:0 () in
  List.iter
    (fun (field, bad) ->
      let path = Filename.temp_file "flopt_range" ".jsonl" in
      let oc = open_out path in
      output_string oc (E.to_json ok ^ "\n" ^ E.to_json bad ^ "\n");
      close_out oc;
      let result = A.load_file path in
      Sys.remove path;
      expect_malformed ~name:field ~line:2 ~field result)
    [
      ("node 65536", { ok with E.node = 65536 });
      ("file -1", { ok with E.file = -1 });
      ("file 67108864", { ok with E.file = 1 lsl 26 });
      ("block 68719476736", { ok with E.block = 1 lsl 36 });
      ("thread 65536", { ok with E.kind = E.Disk_read; E.layer = E.Disk; E.thread = 65536 });
    ]

let test_wide_thread_ids () =
  match A.load_file (data_path "wide_thread_trace.jsonl") with
  | Error e -> Alcotest.failf "ids 0 and 65535 rejected: %s" (A.load_error_to_string e)
  | Ok a ->
    let s = Option.get (A.sharing_of a l2_0) in
    Alcotest.(check (list int)) "active" [ 0; 65535 ] (Flo_analysis.Sharing.active_threads s);
    check "cross shared" 1 (Flo_analysis.Sharing.cross_shared s);
    (* the report's matrix is 2 x 2, not 65536 x 65536 *)
    checkb "2 x 2 sharing matrix" true
      (count_sub (Report.analysis_summary a)
         "        t0  t65535\n------------------\nt0       1       1\nt65535   1       1\n"
       > 0)

let suite =
  suite
  @ [
      ("perfetto: empty trace", `Quick, test_perfetto_empty_trace);
      ("perfetto: single event", `Quick, test_perfetto_single_event);
      ("bad-trace fixture reports line 3", `Quick, test_bad_trace_fixture);
      ("perfetto golden export digest", `Quick, test_perfetto_golden_digest);
      ("reuse read mid-stream = eager reuse", `Quick, test_reuse_read_mid_stream);
      ("out-of-range ids are malformed lines", `Quick, test_out_of_range_ids);
      ("thread ids 0 and 65535: 2 x 2 report", `Quick, test_wide_thread_ids);
    ]
