open Flo_storage

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let b ?(file = 0) index = Block.make ~file ~index

(* ---- Block ----------------------------------------------------------- *)

let test_block () =
  let x = Block.make ~file:2 ~index:5 in
  check "file" 2 (Block.file x);
  check "index" 5 (Block.index x);
  checkb "equal" true (Block.equal x (Block.make ~file:2 ~index:5));
  checkb "ordering by file first" true (Block.compare (b ~file:0 9) (b ~file:1 0) < 0);
  Alcotest.check_raises "negative" (Invalid_argument "Block.make: negative component")
    (fun () -> ignore (Block.make ~file:(-1) ~index:0))

(* ---- Stats ----------------------------------------------------------- *)

let test_stats () =
  let s = Stats.create () in
  Stats.record_hit s;
  Stats.record_hit s;
  Stats.record_miss s;
  Stats.record_eviction s;
  Stats.record_demotion s;
  check "accesses" 3 s.Stats.accesses;
  check "hits" 2 s.Stats.hits;
  check "misses" 1 s.Stats.misses;
  Alcotest.(check (float 1e-9)) "miss rate" (1. /. 3.) (Stats.miss_rate s);
  Alcotest.(check (float 1e-9)) "hit rate" (2. /. 3.) (Stats.hit_rate s);
  let m = Stats.merge [ s; s ] in
  check "merged accesses" 6 m.Stats.accesses;
  Stats.reset s;
  check "reset" 0 s.Stats.accesses;
  Alcotest.(check (float 1e-9)) "empty miss rate" 0. (Stats.miss_rate (Stats.create ()))

(* ---- Dll ------------------------------------------------------------- *)

let test_dll () =
  let l = Dll.create () in
  check "empty" 0 (Dll.length l);
  let n1 = Dll.push_front l 1 in
  let _n2 = Dll.push_front l 2 in
  let n3 = Dll.push_back l 3 in
  check "length" 3 (Dll.length l);
  (* order: 2, 1, 3 *)
  let collect () =
    let acc = ref [] in
    Dll.iter (fun v -> acc := v :: !acc) l;
    List.rev !acc
  in
  checkb "order" true (collect () = [ 2; 1; 3 ]);
  Dll.move_front l n3;
  checkb "after move_front" true (collect () = [ 3; 2; 1 ]);
  Dll.remove l n1;
  check "after remove" 2 (Dll.length l);
  checkb "pop_back" true (Dll.pop_back l = Some 2);
  checkb "back after pop" true (collect () = [ 3 ]);
  Alcotest.check_raises "stale node" (Invalid_argument "Dll.remove: node not in this list")
    (fun () -> Dll.remove l n1)

(* ---- LRU ------------------------------------------------------------ *)

let test_lru_conformance () =
  let c = Lru.create ~capacity:3 in
  checkb "miss on empty" false (c.Policy.touch (b 1));
  checkb "no eviction below capacity" true (c.Policy.insert (b 1) = None);
  ignore (c.Policy.insert (b 2));
  ignore (c.Policy.insert (b 3));
  check "size at capacity" 3 (c.Policy.size ());
  checkb "hit" true (c.Policy.touch (b 2));
  checkb "contains no refresh" true (c.Policy.contains (b 1));
  (* inserting a resident block evicts nothing *)
  checkb "reinsert no evict" true (c.Policy.insert (b 3) = None);
  check "size stable" 3 (c.Policy.size ());
  (* overflow evicts exactly one resident block *)
  (match c.Policy.insert (b 4) with
  | Some victim -> checkb "victim was resident" true (List.mem (Block.index victim) [ 1; 2; 3 ])
  | None -> Alcotest.fail "expected an eviction");
  check "size after eviction" 3 (c.Policy.size ());
  checkb "remove" true (c.Policy.remove (b 4));
  checkb "remove absent" false (c.Policy.remove (b 99));
  check "size after remove" 2 (c.Policy.size ());
  c.Policy.clear ();
  check "cleared" 0 (c.Policy.size ());
  checkb "miss after clear" false (c.Policy.touch (b 2))

let test_lru_order () =
  let c = Lru.create ~capacity:3 in
  ignore (c.Policy.insert (b 1));
  ignore (c.Policy.insert (b 2));
  ignore (c.Policy.insert (b 3));
  ignore (c.Policy.touch (b 1));
  (* LRU order now: 2 (oldest), 3, 1 *)
  checkb "evicts LRU" true (c.Policy.insert (b 4) = Some (b 2));
  checkb "then 3" true (c.Policy.insert (b 5) = Some (b 3))

let test_lru_insert_cold () =
  let c = Lru.create ~capacity:2 in
  ignore (c.Policy.insert (b 1));
  ignore (c.Policy.insert_cold (b 2));
  (* 2 sits at the LRU end despite being inserted last *)
  checkb "cold is first victim" true (c.Policy.insert (b 3) = Some (b 2))

(* ---- Disk ------------------------------------------------------------ *)

let test_disk () =
  let d = Disk.create () in
  let first = Disk.service d ~lba:100 in
  checkb "first read seeks" true (first > Disk.default_params.Disk.transfer_us);
  let seq = Disk.service d ~lba:101 in
  Alcotest.(check (float 1e-9)) "sequential costs transfer only"
    Disk.default_params.Disk.transfer_us seq;
  let rand = Disk.service d ~lba:5000 in
  checkb "random read costs more" true (rand > seq);
  check "reads counted" 3 (Disk.reads d);
  checkb "busy time accumulates" true (Disk.busy_us d > 0.);
  check "head follows" 5000 (Disk.head d);
  Disk.reset d;
  check "reset reads" 0 (Disk.reads d);
  Alcotest.check_raises "negative lba" (Invalid_argument "Disk.service: negative lba")
    (fun () -> ignore (Disk.service d ~lba:(-1)))

let test_disk_monotone_seek () =
  let p = Disk.default_params in
  let d1 = Disk.create () in
  let near = Disk.service d1 ~lba:10 in
  let d2 = Disk.create () in
  let far = Disk.service d2 ~lba:100000 in
  checkb "longer seeks cost more" true (far > near);
  ignore p

(* ---- Striping --------------------------------------------------------- *)

let test_striping () =
  check "round robin node" 2 (Striping.storage_node_of ~storage_nodes:4 (b 6));
  check "node wraps" 0 (Striping.storage_node_of ~storage_nodes:4 (b 8));
  check "lba local slot" 2 (Striping.lba_of ~storage_nodes:4 ~file_stride:100 (b 8));
  check "lba includes file base" 103
    (Striping.lba_of ~storage_nodes:4 ~file_stride:100 (Block.make ~file:1 ~index:12));
  let node, lba = Striping.locate ~storage_nodes:4 ~file_stride:100 (b 9) in
  check "locate node" 1 node;
  check "locate lba" 2 lba;
  Alcotest.check_raises "stride overflow"
    (Invalid_argument "Striping.lba_of: file larger than file_stride") (fun () ->
      ignore (Striping.lba_of ~storage_nodes:1 ~file_stride:10 (b 10)))

(* consecutive blocks spread across all nodes *)
let test_striping_balance () =
  let counts = Array.make 4 0 in
  for i = 0 to 99 do
    let n = Striping.storage_node_of ~storage_nodes:4 (b i) in
    counts.(n) <- counts.(n) + 1
  done;
  checkb "balanced" true (Array.for_all (fun c -> c = 25) counts)

(* ---- Topology ---------------------------------------------------------- *)

let test_topology () =
  let t = Topology.default in
  check "threads" 64 (Topology.threads t);
  check "compute per io" 4 (Topology.compute_per_io t);
  check "io per storage" 4 (Topology.io_per_storage t);
  check "threads per io" 4 (Topology.threads_per_io t);
  check "io of compute 5" 1 (Topology.io_of_compute t 5);
  check "nominal storage of io 7" 1 (Topology.nominal_storage_of_io t 7);
  Alcotest.check_raises "uneven nesting"
    (Invalid_argument "Topology.make: compute_nodes not a multiple of io_nodes") (fun () ->
      ignore
        (Topology.make ~compute_nodes:10 ~io_nodes:3 ~storage_nodes:1 ~block_elems:64
           ~io_cache_blocks:8 ~storage_cache_blocks:8 ()))

(* ---- Karma ------------------------------------------------------------- *)

let hint file lo hi accesses = { Karma.file; lo_block = lo; hi_block = hi; accesses }

let test_karma_classes () =
  (* two overlapping hints split into three segments with summed densities *)
  let cls = Karma.classes [ hint 0 0 9 100.; hint 0 5 14 50. ] in
  check "segments" 3 (List.length cls);
  let seg lo = List.find (fun (c : Karma.cls) -> c.Karma.lo = lo) cls in
  Alcotest.(check (float 1e-6)) "first density" 10. (seg 0).Karma.density;
  Alcotest.(check (float 1e-6)) "overlap density" 15. (seg 5).Karma.density;
  Alcotest.(check (float 1e-6)) "tail density" 5. (seg 10).Karma.density;
  check "sizes" 5 (Karma.size (seg 0))

let test_karma_plan_exclusive () =
  (* one io node; dense class pinned at L1, the rest at L2 *)
  let l1_hints = [| [ hint 0 0 3 400.; hint 0 4 19 16. ] |] in
  let plan = Karma.plan ~l1_hints ~l1_capacity:4 ~l2_capacity_total:16 in
  let l1 = Karma.l1_assigned plan ~io:0 in
  let l2 = Karma.l2_assigned plan in
  check "l1 classes" 1 (List.length l1);
  checkb "dense class at l1" true ((List.hd l1).Karma.lo = 0);
  check "l2 classes" 1 (List.length l2);
  checkb "cold class at l2" true ((List.hd l2).Karma.lo = 4);
  (* caches respect the assignment: L1 refuses L2's blocks and vice versa *)
  let c1 = Karma.l1_cache plan ~io:0 in
  let c2 = Karma.l2_cache plan ~storage_nodes:1 in
  checkb "l1 accepts own" true (c1.Policy.insert (b 2) = None && c1.Policy.contains (b 2));
  ignore (c1.Policy.insert (b 10));
  checkb "l1 refuses foreign" false (c1.Policy.contains (b 10));
  ignore (c2.Policy.insert (b 10));
  checkb "l2 accepts own" true (c2.Policy.contains (b 10));
  ignore (c2.Policy.insert (b 2));
  checkb "l2 refuses l1's" false (c2.Policy.contains (b 2))

let test_karma_quota_eviction () =
  let l1_hints = [| [ hint 0 0 3 100. ] |] in
  let plan = Karma.plan ~l1_hints ~l1_capacity:2 ~l2_capacity_total:8 in
  (* class of size 4 does not fit in L1 (no splitting): it goes to L2 *)
  check "l1 empty" 0 (List.length (Karma.l1_assigned plan ~io:0));
  check "l2 holds it" 1 (List.length (Karma.l2_assigned plan))

(* ---- Hierarchy --------------------------------------------------------- *)

let tiny_topology =
  Topology.make ~compute_nodes:4 ~io_nodes:2 ~storage_nodes:1 ~block_elems:4
    ~io_cache_blocks:2 ~storage_cache_blocks:4 ()

let test_hierarchy_inclusive_path () =
  let h = Hierarchy.create tiny_topology in
  Hierarchy.access h ~thread:0 (b 0);
  (* cold: miss at both layers, one disk read *)
  check "l1 miss" 1 (Hierarchy.l1_stats h).Stats.misses;
  check "l2 miss" 1 (Hierarchy.l2_stats h).Stats.misses;
  check "disk read" 1 (Hierarchy.disk_reads h);
  Hierarchy.access h ~thread:0 (b 0);
  check "l1 hit" 1 (Hierarchy.l1_stats h).Stats.hits;
  check "still one disk read" 1 (Hierarchy.disk_reads h);
  (* thread 2 is on the other I/O node: misses L1 but hits shared L2 *)
  Hierarchy.access h ~thread:2 (b 0);
  check "l2 hit from other client" 1 (Hierarchy.l2_stats h).Stats.hits;
  check "no extra disk read" 1 (Hierarchy.disk_reads h);
  checkb "clock advanced" true (Hierarchy.thread_clock_us h 0 > 0.)

let test_hierarchy_routing () =
  let h = Hierarchy.create tiny_topology in
  check "thread 0 -> io 0" 0 (Hierarchy.io_node_of_thread h 0);
  check "thread 3 -> io 1" 1 (Hierarchy.io_node_of_thread h 3);
  let mapping = [| 3; 2; 1; 0 |] in
  let h2 = Hierarchy.create ~mapping tiny_topology in
  check "mapped thread 0 -> io 1" 1 (Hierarchy.io_node_of_thread h2 0)

let test_hierarchy_demote () =
  let h = Hierarchy.create ~protocol:Hierarchy.Demote_exclusive tiny_topology in
  (* fill thread 0's L1 (capacity 2) and force an eviction: victim demoted *)
  Hierarchy.access h ~thread:0 (b 0);
  Hierarchy.access h ~thread:0 (b 1);
  Hierarchy.access h ~thread:0 (b 2);
  check "demotion recorded" 1 (Hierarchy.l2_stats h).Stats.demotions;
  (* the demoted block must hit at L2 now *)
  let reads_before = Hierarchy.disk_reads h in
  Hierarchy.access h ~thread:0 (b 0);
  check "demoted block served from l2" (Hierarchy.disk_reads h) reads_before;
  check "l2 hit" 1 (Hierarchy.l2_stats h).Stats.hits

let test_hierarchy_elapsed_and_reset () =
  let h = Hierarchy.create tiny_topology in
  Hierarchy.access h ~thread:1 (b 7);
  Hierarchy.add_cpu_us h ~thread:1 100.;
  checkb "elapsed is max clock" true (Hierarchy.elapsed_us h >= 100.);
  Hierarchy.reset h;
  Alcotest.(check (float 1e-9)) "clocks cleared" 0. (Hierarchy.elapsed_us h);
  check "stats cleared" 0 (Hierarchy.l1_stats h).Stats.accesses;
  (* caches really cleared: same access misses again *)
  Hierarchy.access h ~thread:1 (b 7);
  check "cold again" 1 (Hierarchy.l1_stats h).Stats.misses

let test_hierarchy_validation () =
  Alcotest.check_raises "bad mapping length"
    (Invalid_argument "Hierarchy.create: mapping length") (fun () ->
      ignore (Hierarchy.create ~mapping:[| 0 |] tiny_topology));
  Alcotest.check_raises "bad mapping target"
    (Invalid_argument "Hierarchy.create: mapping target out of range") (fun () ->
      ignore (Hierarchy.create ~mapping:[| 0; 1; 2; 9 |] tiny_topology))

let test_hierarchy_prefetch_hits () =
  let h = Hierarchy.create ~readahead:2 tiny_topology in
  Hierarchy.access h ~thread:0 (b 0);
  (* the miss on b0 read the disk and speculatively pulled b1, b2 into L2 *)
  check "two blocks prefetched" 2 (Hierarchy.prefetches h);
  check "no hits yet" 0 (Hierarchy.prefetch_hits h);
  Hierarchy.access h ~thread:0 (b 1);
  check "first prefetched block touched" 1 (Hierarchy.prefetch_hits h);
  check "served without a new disk read" 1 (Hierarchy.disk_reads h);
  Hierarchy.access h ~thread:0 (b 2);
  check "second prefetched block touched" 2 (Hierarchy.prefetch_hits h);
  (* re-touching a block counts once: the speculative tag is consumed *)
  Hierarchy.access h ~thread:2 (b 2);
  check "tag consumed on first touch" 2 (Hierarchy.prefetch_hits h);
  let l2 = Hierarchy.l2_stats h in
  check "stats mirror the accessors" l2.Stats.prefetch_hits (Hierarchy.prefetch_hits h);
  checkb "hits bounded by prefetches" true
    (Hierarchy.prefetch_hits h <= Hierarchy.prefetches h);
  Hierarchy.reset h;
  check "reset clears prefetch counters" 0 (Hierarchy.prefetches h)

(* ---- QCheck: LRU model conformance ------------------------------------ *)

(* Compare the O(1) LRU against a naive reference implementation. *)
let prop_lru_matches_model =
  let ops =
    QCheck.list_of_size (QCheck.Gen.int_range 1 200)
      (QCheck.pair (QCheck.int_range 0 2) (QCheck.int_range 0 9))
  in
  QCheck.Test.make ~name:"lru matches a naive model" ~count:100 ops (fun ops ->
      let cache = Lru.create ~capacity:3 in
      let model = ref [] in
      (* model: most-recent first, max 3 entries *)
      let model_touch k =
        if List.mem k !model then begin
          model := k :: List.filter (( <> ) k) !model;
          true
        end
        else false
      in
      let model_insert k =
        if List.mem k !model then model := k :: List.filter (( <> ) k) !model
        else begin
          model := k :: !model;
          if List.length !model > 3 then
            model := List.filteri (fun i _ -> i < 3) !model
        end
      in
      List.for_all
        (fun (op, k) ->
          match op with
          | 0 -> cache.Policy.touch (b k) = model_touch k
          | 1 ->
            ignore (cache.Policy.insert (b k));
            model_insert k;
            cache.Policy.size () = List.length !model
          | _ ->
            let removed = cache.Policy.remove (b k) in
            let present = List.mem k !model in
            model := List.filter (( <> ) k) !model;
            removed = present)
        ops)

let prop_caches_never_exceed_capacity =
  let factories = [ ("lru", Lru.create); ("reference", Lru.reference) ] in
  let ops = QCheck.list_of_size (QCheck.Gen.int_range 1 100) (QCheck.int_range 0 30) in
  QCheck.Test.make ~name:"no policy exceeds capacity" ~count:50 ops (fun keys ->
      List.for_all
        (fun (_, f) ->
          let c = f ~capacity:4 in
          List.iter (fun k -> ignore (c.Policy.insert (b k))) keys;
          c.Policy.size () <= 4)
        factories)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_lru_matches_model; prop_caches_never_exceed_capacity ]

let suite =
  [
    ("block identity", `Quick, test_block);
    ("stats counters", `Quick, test_stats);
    ("dll operations", `Quick, test_dll);
    ("lru conformance", `Quick, test_lru_conformance);
    ("lru eviction order", `Quick, test_lru_order);
    ("lru cold insertion", `Quick, test_lru_insert_cold);
    ("disk service model", `Quick, test_disk);
    ("disk seek monotonicity", `Quick, test_disk_monotone_seek);
    ("striping placement", `Quick, test_striping);
    ("striping balance", `Quick, test_striping_balance);
    ("topology", `Quick, test_topology);
    ("karma class overlay", `Quick, test_karma_classes);
    ("karma exclusive plan", `Quick, test_karma_plan_exclusive);
    ("karma quota handling", `Quick, test_karma_quota_eviction);
    ("hierarchy inclusive path", `Quick, test_hierarchy_inclusive_path);
    ("hierarchy routing", `Quick, test_hierarchy_routing);
    ("hierarchy demote protocol", `Quick, test_hierarchy_demote);
    ("hierarchy elapsed/reset", `Quick, test_hierarchy_elapsed_and_reset);
    ("hierarchy validation", `Quick, test_hierarchy_validation);
    ("hierarchy prefetch hits", `Quick, test_hierarchy_prefetch_hits);
  ]
  @ qsuite
