open Flo_linalg
open Flo_poly
open Flo_core

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let layer capacity fanout = { Chunk_pattern.capacity; fanout }

(* the paper's Fig. 6 example: 4 threads, 2 I/O caches of S1, 1 storage
   cache of S2, with S1 = 64 and S2 = 256 (t_1 = 2) *)
let fig6 = Chunk_pattern.make ~layers:[| layer 64 2; layer 256 2 |]

(* ---- Chunk_pattern ----------------------------------------------------- *)

let test_pattern_structure () =
  check "threads" 4 (Chunk_pattern.threads fig6);
  check "chunk = S1/l" 32 (Chunk_pattern.chunk_elems fig6);
  check "period = S2" 256 (Chunk_pattern.period fig6);
  check "thread base share" 64 (Chunk_pattern.thread_base fig6);
  checkb "t_1 = S2/(N2 S1)" true (fig6.Chunk_pattern.reps = [| 2 |])

let test_pattern_bases () =
  (* SC2 pattern: <P1 P2 P1 P2 | P3 P4 P3 P4> with 32-element chunks *)
  check "P1 base" 0 (Chunk_pattern.base fig6 ~thread:0);
  check "P2 base" 32 (Chunk_pattern.base fig6 ~thread:1);
  check "P3 base" 128 (Chunk_pattern.base fig6 ~thread:2);
  check "P4 base" 160 (Chunk_pattern.base fig6 ~thread:3)

let test_pattern_offsets_match_paper_formula () =
  (* b1 = (x mod t1) * S1, b2 = (x / t1) * S2 *)
  let expect thread x =
    Chunk_pattern.base fig6 ~thread + (x mod 2 * 64) + (x / 2 * 256)
  in
  for thread = 0 to 3 do
    for x = 0 to 5 do
      check
        (Printf.sprintf "chunk %d of thread %d" x thread)
        (expect thread x)
        (Chunk_pattern.offset fig6 ~thread ~rank:(x * 32))
    done
  done

let test_pattern_locate_inverse () =
  for thread = 0 to 3 do
    for rank = 0 to 191 do
      let o = Chunk_pattern.offset fig6 ~thread ~rank in
      let t', r' = Chunk_pattern.locate fig6 o in
      if t' <> thread || r' <> rank then
        Alcotest.failf "locate(offset %d,%d) = (%d,%d)" thread rank t' r'
    done
  done

let test_pattern_single_layer () =
  let p = Chunk_pattern.make ~layers:[| layer 64 4 |] in
  check "chunk" 16 (Chunk_pattern.chunk_elems p);
  check "period" 64 (Chunk_pattern.period p);
  (* second chunk of thread 0 starts one full period later *)
  check "x=1 offset" 64 (Chunk_pattern.offset p ~thread:0 ~rank:16)

let test_pattern_validation () =
  Alcotest.check_raises "S1 not divisible"
    (Invalid_argument "Chunk_pattern.make: S_1 not a multiple of threads-per-cache")
    (fun () -> ignore (Chunk_pattern.make ~layers:[| layer 65 2 |]));
  Alcotest.check_raises "t_i not integral"
    (Invalid_argument "Chunk_pattern.make: t_i not integral") (fun () ->
      ignore (Chunk_pattern.make ~layers:[| layer 64 2; layer 200 2 |]));
  Alcotest.check_raises "no layers" (Invalid_argument "Chunk_pattern: no layers")
    (fun () -> ignore (Chunk_pattern.make ~layers:[||]))

let test_pattern_fit () =
  (* infeasible capacities are clamped down (and t_i up to 1) *)
  let p = Chunk_pattern.fit ~align:8 ~layers:[| layer 70 2; layer 100 2 |] () in
  check "aligned chunk" 32 (Chunk_pattern.chunk_elems p);
  check "clamped S1" 64 p.Chunk_pattern.layers.(0).Chunk_pattern.capacity;
  check "clamped S2 (t=1)" 128 p.Chunk_pattern.layers.(1).Chunk_pattern.capacity;
  checkb "reps at least 1" true (Array.for_all (fun t -> t >= 1) p.Chunk_pattern.reps)

(* random pattern configurations stay bijective *)
let pattern_arb =
  let gen =
    QCheck.Gen.(
      let* l = int_range 1 4 in
      let* chunk = int_range 1 8 in
      let* n2 = int_range 1 3 in
      let* t1 = int_range 1 3 in
      let* n3 = int_range 1 2 in
      let* t2 = int_range 1 2 in
      let s1 = chunk * l in
      let s2 = t1 * n2 * s1 in
      let s3 = t2 * n3 * s2 in
      return [| layer s1 l; layer s2 n2; layer s3 n3 |])
  in
  QCheck.make gen

let prop_pattern_bijective =
  QCheck.Test.make ~name:"pattern offsets are bijective (locate inverts)" ~count:100
    pattern_arb (fun layers ->
      let p = Chunk_pattern.make ~layers in
      let per = 2 * Chunk_pattern.thread_base p in
      let seen = Hashtbl.create 64 in
      let ok = ref true in
      for t = 0 to Chunk_pattern.threads p - 1 do
        for r = 0 to per - 1 do
          let o = Chunk_pattern.offset p ~thread:t ~rank:r in
          if Hashtbl.mem seen o then ok := false;
          Hashtbl.replace seen o ();
          if Chunk_pattern.locate p o <> (t, r) then ok := false
        done
      done;
      !ok)

let prop_pattern_dense =
  QCheck.Test.make ~name:"pattern covers every offset of a period" ~count:100 pattern_arb
    (fun layers ->
      let p = Chunk_pattern.make ~layers in
      let seen = Hashtbl.create 64 in
      for t = 0 to Chunk_pattern.threads p - 1 do
        for r = 0 to Chunk_pattern.thread_base p - 1 do
          Hashtbl.replace seen (Chunk_pattern.offset p ~thread:t ~rank:r) ()
        done
      done;
      let dense = ref true in
      for o = 0 to Chunk_pattern.period p - 1 do
        if not (Hashtbl.mem seen o) then dense := false
      done;
      !dense)

(* ---- File_layout -------------------------------------------------------- *)

let space_16x8 = Data_space.make [| 16; 8 |]

let test_permuted_layout () =
  let l = File_layout.permuted space_16x8 [| 1; 0 |] in
  (* col-major: offset = a2 * 16 + a1 *)
  check "permuted offset" 35 (File_layout.offset_of l [| 3; 2 |]);
  check "matches col_major" (File_layout.offset_of (File_layout.Col_major space_16x8) [| 3; 2 |])
    (File_layout.offset_of l [| 3; 2 |]);
  checkb "identity permutation = row major" true
    (File_layout.offset_of (File_layout.permuted space_16x8 [| 0; 1 |]) [| 3; 2 |]
    = File_layout.offset_of (File_layout.Row_major space_16x8) [| 3; 2 |]);
  Alcotest.check_raises "bad permutation"
    (Invalid_argument "File_layout.permuted: not a permutation") (fun () ->
      ignore (File_layout.permuted space_16x8 [| 0; 0 |]))

let internode_col =
  (* transposed access on a 16x8 array, 4 threads: partition along a2 *)
  let d = Imat.of_rows [ [ 0; 1 ]; [ -1; 0 ] ] in
  File_layout.internode ~space:space_16x8 ~d ~v:0 ~num_blocks:4 ~v_origin:0
    ~slab_height:2
    ~pattern:(Chunk_pattern.make ~layers:[| layer 16 2; layer 64 2 |])

let test_internode_injective () =
  let seen = Hashtbl.create 256 in
  Data_space.iter space_16x8 (fun a ->
      let o = File_layout.offset_of internode_col a in
      checkb "offset nonneg" true (o >= 0);
      if Hashtbl.mem seen o then Alcotest.failf "duplicate offset %d" o;
      Hashtbl.replace seen o ());
  check "all distinct" 128 (Hashtbl.length seen);
  checkb "size covers offsets" true (File_layout.size internode_col >= 128)

let test_internode_owner_alignment () =
  (* a2 (column) is the partition driver: column c belongs to thread c/2 *)
  Data_space.iter space_16x8 (fun a ->
      match File_layout.owner_of internode_col a with
      | Some t -> check "owner" (a.(1) / 2) t
      | None -> Alcotest.fail "expected owner")

let test_internode_thread_contiguity () =
  (* each thread's elements land in [owner-count] x chunk-sized runs: the
     16-element chunks of one thread hold 16 consecutive thread-local
     elements *)
  let offsets = Array.make 4 [] in
  Data_space.iter space_16x8 (fun a ->
      let t = Option.get (File_layout.owner_of internode_col a) in
      offsets.(t) <- File_layout.offset_of internode_col a :: offsets.(t));
  Array.iteri
    (fun t offs ->
      let sorted = List.sort compare offs in
      (* 32 elements per thread in runs of >= 8 (chunk = 8 after fit) *)
      let runs = ref 1 in
      let rec count = function
        | a :: (c :: _ as rest) ->
          if c <> a + 1 then incr runs;
          count rest
        | _ -> ()
      in
      count sorted;
      checkb (Printf.sprintf "thread %d data is chunked, not scattered" t) true (!runs <= 4))
    offsets

let test_internode_validation () =
  let d_bad = Imat.of_rows [ [ 1; 1 ]; [ 1; 1 ] ] in
  let pattern = Chunk_pattern.make ~layers:[| layer 16 2 |] in
  Alcotest.check_raises "not unimodular"
    (Invalid_argument "File_layout.internode: D not unimodular") (fun () ->
      ignore
        (File_layout.internode ~space:space_16x8 ~d:d_bad ~v:0 ~num_blocks:4 ~v_origin:0
           ~slab_height:1 ~pattern));
  Alcotest.check_raises "bad v" (Invalid_argument "File_layout.internode: v out of range")
    (fun () ->
      ignore
        (File_layout.internode ~space:space_16x8 ~d:(Imat.identity 2) ~v:5 ~num_blocks:4
           ~v_origin:0 ~slab_height:1 ~pattern))

let test_offset_out_of_range () =
  Alcotest.check_raises "out of range"
    (Invalid_argument "File_layout.offset_of: out of range") (fun () ->
      ignore (File_layout.offset_of (File_layout.Row_major space_16x8) [| 99; 0 |]))

(* sheared access: the anchored slab grid keeps owners aligned *)
let test_internode_shear () =
  let space = Data_space.make [| 20; 8 |] in
  (* accesses A[i+j, j] with i in 0..11 parallel over 4 blocks *)
  let d = Imat.of_rows [ [ 1; -1 ]; [ 0; 1 ] ] in
  let l =
    File_layout.internode ~space ~d ~v:0 ~num_blocks:4 ~v_origin:0 ~slab_height:3
      ~pattern:(Chunk_pattern.make ~layers:[| layer 24 2; layer 96 2 |])
  in
  (* element (i+j, j) has a'_v = i: iteration block i/3 owns it *)
  let ok = ref true in
  for i = 0 to 11 do
    for j = 0 to 7 do
      match File_layout.owner_of l [| i + j; j |] with
      | Some t -> if t <> i / 3 then ok := false
      | None -> ok := false
    done
  done;
  checkb "shear owners aligned with iteration blocks" true !ok;
  (* and the whole space still maps injectively *)
  let seen = Hashtbl.create 256 in
  Data_space.iter space (fun a ->
      let o = File_layout.offset_of l a in
      if Hashtbl.mem seen o then Alcotest.failf "dup offset %d" o;
      Hashtbl.replace seen o ());
  check "injective" 160 (Hashtbl.length seen)

(* ---- Weights -------------------------------------------------------------- *)

let nest_of ?(w = 1) ?(n = 8) refs =
  Loop_nest.make ~weight:w ~parallel_dim:0 (Iter_space.make [| (0, n - 1); (0, n - 1) |]) refs

let test_weights_grouping () =
  let n1 = nest_of ~w:2 [ Access.ij ~array_id:0 ] in
  let n2 = nest_of [ Access.ij ~array_id:0; Access.ji ~array_id:0 ] in
  let groups =
    Weights.group_refs
      [ (n1, List.hd n1.Loop_nest.refs);
        (n2, List.nth n2.Loop_nest.refs 0); (n2, List.nth n2.Loop_nest.refs 1) ]
  in
  check "two groups" 2 (List.length groups);
  let g1 = List.hd groups in
  (* ij group: 2*64 + 64 = 192; ji group: 64 *)
  check "dominant weight" 192 g1.Weights.weight;
  checkb "dominant is ij" true (Imat.equal g1.Weights.matrix (Imat.identity 2));
  Alcotest.(check (float 1e-9)) "coverage of dominant" 0.75
    (Weights.coverage groups ~satisfied:(fun g -> g == g1))

(* ---- Array_partition ------------------------------------------------------- *)

let solve_one access =
  let nest = nest_of [ access ] in
  Array_partition.solve_refs [ (nest, access) ]

let test_partition_row_access () =
  match solve_one (Access.ij ~array_id:0) with
  | Some r ->
    checkb "d annihilates j column" true (Ivec.equal r.Array_partition.d_row [| 1; 0 |]);
    check "stride" 1 r.Array_partition.stride;
    Alcotest.(check (float 1e-9)) "full coverage" 1.0 r.Array_partition.coverage;
    checkb "D unimodular" true (Imat.is_unimodular r.Array_partition.d);
    checkb "d is row v of D" true
      (Ivec.equal (Imat.row r.Array_partition.d r.Array_partition.v) r.Array_partition.d_row)
  | None -> Alcotest.fail "row access must be partitionable"

let test_partition_col_access () =
  match solve_one (Access.ji ~array_id:0) with
  | Some r ->
    checkb "d picks second data dim" true (Ivec.equal r.Array_partition.d_row [| 0; 1 |]);
    check "stride" 1 r.Array_partition.stride
  | None -> Alcotest.fail "col access must be partitionable"

let test_partition_shear () =
  match solve_one (Access.diag ~array_id:0) with
  | Some r ->
    (* d . (1,1)^T != 0 is the parallel direction; d . (1,1 col j) = 0 *)
    checkb "d = (1,-1)" true (Ivec.equal r.Array_partition.d_row [| 1; -1 |]);
    check "stride" 1 r.Array_partition.stride
  | None -> Alcotest.fail "shear must be partitionable"

let test_partition_strided () =
  match solve_one (Access.of_rows ~array_id:0 [ [ 2; 0 ]; [ 0; 2 ] ] [ 0; 0 ]) with
  | Some r -> check "stride follows coefficient" 2 r.Array_partition.stride
  | None -> Alcotest.fail "strided access must be partitionable"

let test_partition_unsolvable () =
  (* 3-deep nest, 2-D array indexed by the two non-parallel iterators:
     Q.E_u has full row rank, no d exists *)
  let access = Access.of_rows ~array_id:0 [ [ 0; 1; 0 ]; [ 0; 0; 1 ] ] [ 0; 0 ] in
  let nest =
    Loop_nest.make ~parallel_dim:0
      (Iter_space.make [| (0, 3); (0, 3); (0, 3) |])
      [ access ]
  in
  checkb "unsolvable" true (Array_partition.solve_refs [ (nest, access) ] = None)

let test_partition_conflicting_majority () =
  let heavy = nest_of ~w:3 [ Access.ji ~array_id:0 ] in
  let light = nest_of [ Access.ij ~array_id:0 ] in
  match
    Array_partition.solve_refs
      [ (heavy, List.hd heavy.Loop_nest.refs); (light, List.hd light.Loop_nest.refs) ]
  with
  | Some r ->
    checkb "majority (col) satisfied" true (Ivec.equal r.Array_partition.d_row [| 0; 1 |]);
    Alcotest.(check (float 1e-9)) "coverage 3/4" 0.75 r.Array_partition.coverage;
    check "one group unsatisfied" 1 (List.length r.Array_partition.unsatisfied)
  | None -> Alcotest.fail "expected the dominant group to be solvable"

let test_partition_compatible_groups () =
  (* A[i,j] and A[i, j+1] share the same matrix family direction: both satisfiable *)
  let n1 = nest_of [ Access.ij ~array_id:0 ] in
  let shifted = Access.of_rows ~array_id:0 [ [ 1; 0 ]; [ 0; 1 ] ] [ 0; 1 ] in
  let n2 = nest_of [ shifted ] in
  match Array_partition.solve_refs [ (n1, List.hd n1.Loop_nest.refs); (n2, shifted) ] with
  | Some r -> Alcotest.(check (float 1e-9)) "both satisfied" 1.0 r.Array_partition.coverage
  | None -> Alcotest.fail "compatible groups must be solvable"

let test_partition_origin () =
  (* offset vector shifts the image origin: A[i+3, j] partitioned along rows *)
  let access = Access.of_rows ~array_id:0 [ [ 1; 0 ]; [ 0; 1 ] ] [ 3; 0 ] in
  let nest = nest_of [ access ] in
  match Array_partition.solve_refs [ (nest, access) ] with
  | Some r ->
    (* d = (1,0): a'_v = i + 3; lo_u = 0 -> origin = d.q = 3 *)
    check "origin includes offset" 3 r.Array_partition.origin;
    check "u extent" 8 r.Array_partition.u_extent
  | None -> Alcotest.fail "expected solvable"

(* property: whenever Step I succeeds, iterations on one iteration hyperplane
   touch data on one data hyperplane (the defining equation of the paper) *)
let prop_partition_invariant =
  let access_arb =
    QCheck.make
      QCheck.Gen.(
        let entry = int_range (-2) 2 in
        let* q = array_size (return 4) entry in
        return (Access.of_rows ~array_id:0 [ [ q.(0); q.(1) ]; [ q.(2); q.(3) ] ] [ 0; 0 ]))
  in
  QCheck.Test.make ~name:"Step I: h_A . D . Q . E_u = 0 on satisfied groups" ~count:200
    access_arb (fun access ->
      let nest = nest_of [ access ] in
      match Array_partition.solve_refs [ (nest, access) ] with
      | None -> QCheck.assume_fail ()
      | Some r ->
        let d_row = r.Array_partition.d_row in
        List.for_all
          (fun (g : Weights.group) ->
            let m = Array_partition.constraint_columns g in
            Ivec.is_zero (Imat.vec_mul d_row m))
          r.Array_partition.satisfied
        && Imat.is_unimodular r.Array_partition.d)

(* ---- Internode / scopes ------------------------------------------------- *)

let spec4 =
  Internode.make_spec ~threads:4 ~num_blocks:4
    ~layers:[| layer 64 2; layer 256 2 |]
    ~align:8

let test_internode_spec_validation () =
  Alcotest.check_raises "fanout product"
    (Invalid_argument "Internode.make_spec: layer fanouts do not multiply to thread count")
    (fun () ->
      ignore
        (Internode.make_spec ~threads:8 ~num_blocks:8 ~layers:[| layer 64 2; layer 256 2 |]
           ~align:8))

let test_scope_patterns () =
  let both = Internode.pattern_for spec4 Internode.Both in
  check "both chunk" 32 (Chunk_pattern.chunk_elems both);
  check "both period" 256 (Chunk_pattern.period both);
  let io = Internode.pattern_for spec4 Internode.Io_only in
  check "io-only period is minimal" 128 (Chunk_pattern.period io);
  checkb "io-only reps all 1" true (Array.for_all (( = ) 1) io.Chunk_pattern.reps);
  let st = Internode.pattern_for spec4 Internode.Storage_only in
  (* merged layer: every thread gets an equal share of S2 *)
  check "storage-only chunk" 64 (Chunk_pattern.chunk_elems st);
  check "storage-only threads" 4 (Chunk_pattern.threads st)

let test_layout_for () =
  let space = Data_space.make [| 16; 16 |] in
  let access = Access.ji ~array_id:0 in
  let nest = nest_of ~n:16 [ access ] in
  let partition = Option.get (Array_partition.solve_refs [ (nest, access) ]) in
  let l = Internode.layout_for ~space ~partition spec4 Internode.Both in
  (match l with
  | File_layout.Internode i ->
    check "slab height = ext_u/num_blocks" 4 (File_layout.slab_height i)
  | _ -> Alcotest.fail "expected internode layout");
  (* still a valid injective layout *)
  let seen = Hashtbl.create 256 in
  Data_space.iter space (fun a -> Hashtbl.replace seen (File_layout.offset_of l a) ());
  check "injective" 256 (Hashtbl.length seen)

(* ---- Optimizer ------------------------------------------------------------ *)

let program_mixed =
  let d = Data_space.make [| 16; 16 |] in
  Program.make ~name:"mixed"
    [ Program.declare ~id:0 ~name:"colwise" d;
      Program.declare ~id:1 ~name:"tied" d;
      Program.declare ~opaque:true ~id:2 ~name:"hidden" d ]
    [
      nest_of ~n:16 [ Access.ji ~array_id:0; Access.ji ~array_id:1; Access.ij ~array_id:2 ];
      nest_of ~n:16 [ Access.ij ~array_id:1 ];
    ]

let test_optimizer_decisions () =
  let plan = Optimizer.run ~spec:spec4 program_mixed in
  check "total" 3 (Optimizer.total_arrays plan);
  check "optimized" 1 (Optimizer.optimized_count plan);
  (match Optimizer.layout_of plan 0 with
  | File_layout.Internode _ -> ()
  | _ -> Alcotest.fail "colwise array should be restructured");
  (match Optimizer.layout_of plan 1 with
  | File_layout.Row_major _ -> ()
  | _ -> Alcotest.fail "tied array must be declined");
  (match Optimizer.layout_of plan 2 with
  | File_layout.Row_major _ -> ()
  | _ -> Alcotest.fail "opaque array must stay canonical");
  Alcotest.(check (float 1e-9)) "mean coverage" 1.0 (Optimizer.mean_coverage plan)

let test_optimizer_coverage_gate () =
  let plan = Optimizer.run ~spec:spec4 program_mixed in
  (* the tied array's Step I solution satisfies exactly half of the
     reference weight: no strict majority, so the gate keeps it canonical *)
  match List.find (fun d -> d.Optimizer.array_id = 1) plan.Optimizer.decisions with
  | { Optimizer.stage = Optimizer.Canonical; reason = Optimizer.Low_coverage c; _ } ->
    Alcotest.(check (float 1e-9)) "declined at coverage 1/2" 0.5 c
  | d ->
    Alcotest.failf "tied array: stage %s, reason %s"
      (Optimizer.stage_to_string d.Optimizer.stage)
      (Optimizer.reason_to_string d.Optimizer.reason)

let test_optimizer_scope_recorded () =
  let plan = Optimizer.run ~scope:Internode.Io_only ~spec:spec4 program_mixed in
  checkb "scope kept" true (plan.Optimizer.scope = Internode.Io_only)

(* ---- Reindex --------------------------------------------------------------- *)

let test_permutations () =
  check "3! permutations" 6 (List.length (Reindex.permutations 3));
  check "1 permutation" 1 (List.length (Reindex.permutations 1));
  checkb "all distinct" true
    (let l = Reindex.permutations 4 in
     List.length (List.sort_uniq compare l) = 24)

let test_reindex_dominant_order () =
  let chosen = Reindex.dominant_order program_mixed in
  (* col-wise array -> col-major permutation; tied -> canonical *)
  (match List.assoc 0 chosen with
  | File_layout.Permuted (_, order) -> checkb "transposed" true (order = [| 1; 0 |])
  | _ -> Alcotest.fail "expected a permutation for the col-wise array");
  match List.assoc 1 chosen with
  | File_layout.Row_major _ -> ()
  | _ -> Alcotest.fail "tie keeps canonical layout"

let test_reindex_profile_search () =
  (* evaluator prefers the transposed layout of array 0 *)
  let evaluate assignment =
    match assignment 0 with
    | File_layout.Permuted (_, order) when order = [| 1; 0 |] -> 1.0
    | _ -> 2.0
  in
  let outcome = Reindex.optimize program_mixed ~evaluate in
  Alcotest.(check (float 1e-9)) "found the optimum" 1.0 outcome.Reindex.time;
  checkb "spent profile runs" true (outcome.Reindex.evaluations > 1)

(* ---- Compmap ---------------------------------------------------------------- *)

let test_compmap_bijections () =
  let threads = 16 and cluster = 4 and num_blocks = 16 in
  List.iter
    (fun s ->
      let image =
        List.init num_blocks (Compmap.assign s ~cluster ~threads ~num_blocks)
        |> List.sort_uniq compare
      in
      Alcotest.(check int)
        (Compmap.strategy_to_string s ^ " is a bijection")
        threads (List.length image))
    (Compmap.all_strategies ~cluster ~threads)

let test_compmap_strategies_family () =
  let fam = Compmap.all_strategies ~cluster:4 ~threads:16 in
  checkb "contains ident" true (List.mem Compmap.Ident fam);
  checkb "contains reverse" true (List.mem Compmap.Reverse fam);
  checkb "contains cluster swap" true (List.mem Compmap.Cluster_swap fam);
  Alcotest.check_raises "cluster must divide"
    (Invalid_argument "Compmap.all_strategies: cluster must divide threads") (fun () ->
      ignore (Compmap.all_strategies ~cluster:3 ~threads:16))

let test_compmap_search () =
  (* evaluator rewards Reverse on nest 1 only *)
  let evaluate f = if f 1 = Compmap.Reverse then 1.0 else 2.0 in
  let outcome = Compmap.optimize ~nests:2 ~cluster:4 ~threads:16 ~evaluate in
  checkb "nest 1 reversed" true (List.assoc 1 outcome.Compmap.choices = Compmap.Reverse);
  checkb "nest 0 untouched" true (List.assoc 0 outcome.Compmap.choices = Compmap.Ident);
  Alcotest.(check (float 1e-9)) "time" 1.0 outcome.Compmap.time

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_pattern_bijective; prop_pattern_dense; prop_partition_invariant ]

let suite =
  [
    ("pattern structure (Fig 6)", `Quick, test_pattern_structure);
    ("pattern thread bases", `Quick, test_pattern_bases);
    ("pattern offsets match paper formula", `Quick, test_pattern_offsets_match_paper_formula);
    ("pattern locate inverse", `Quick, test_pattern_locate_inverse);
    ("pattern single layer", `Quick, test_pattern_single_layer);
    ("pattern validation", `Quick, test_pattern_validation);
    ("pattern fit clamps", `Quick, test_pattern_fit);
    ("permuted layouts", `Quick, test_permuted_layout);
    ("internode injectivity", `Quick, test_internode_injective);
    ("internode owner alignment", `Quick, test_internode_owner_alignment);
    ("internode thread contiguity", `Quick, test_internode_thread_contiguity);
    ("internode validation", `Quick, test_internode_validation);
    ("offset out of range", `Quick, test_offset_out_of_range);
    ("internode sheared access", `Quick, test_internode_shear);
    ("weights grouping", `Quick, test_weights_grouping);
    ("Step I: row access", `Quick, test_partition_row_access);
    ("Step I: column access", `Quick, test_partition_col_access);
    ("Step I: sheared access", `Quick, test_partition_shear);
    ("Step I: strided access", `Quick, test_partition_strided);
    ("Step I: unsolvable system", `Quick, test_partition_unsolvable);
    ("Step I: weighted conflict", `Quick, test_partition_conflicting_majority);
    ("Step I: compatible groups", `Quick, test_partition_compatible_groups);
    ("Step I: image origin", `Quick, test_partition_origin);
    ("internode spec validation", `Quick, test_internode_spec_validation);
    ("scope patterns (Fig 7f)", `Quick, test_scope_patterns);
    ("layout_for", `Quick, test_layout_for);
    ("optimizer decisions", `Quick, test_optimizer_decisions);
    ("optimizer coverage gate", `Quick, test_optimizer_coverage_gate);
    ("optimizer scope", `Quick, test_optimizer_scope_recorded);
    ("reindex permutations", `Quick, test_permutations);
    ("reindex dominant order", `Quick, test_reindex_dominant_order);
    ("reindex profile search", `Quick, test_reindex_profile_search);
    ("compmap bijections", `Quick, test_compmap_bijections);
    ("compmap strategy family", `Quick, test_compmap_strategies_family);
    ("compmap greedy search", `Quick, test_compmap_search);
  ]
  @ qsuite

(* ---- extra property coverage (randomized internode configurations) ------ *)

let internode_arb =
  let gen =
    QCheck.Gen.(
      let* rows = int_range 8 24 in
      let* cols = int_range 4 16 in
      let* chunk = int_range 1 4 in
      let* l = int_range 1 4 in
      let* t1 = int_range 1 3 in
      let* num_blocks = int_range 1 8 in
      let* transposed = bool in
      let* sh = int_range 1 4 in
      let s1 = chunk * l in
      let layers = [| layer s1 l; layer (t1 * 2 * s1) 2 |] in
      return (rows, cols, layers, num_blocks, transposed, sh))
  in
  QCheck.make gen

let prop_internode_injective_random =
  QCheck.Test.make ~name:"internode layouts are injective on random configs" ~count:60
    internode_arb (fun (rows, cols, layers, num_blocks, transposed, sh) ->
      let space = Data_space.make [| rows; cols |] in
      let d =
        if transposed then Imat.of_rows [ [ 0; 1 ]; [ -1; 0 ] ] else Imat.identity 2
      in
      let l =
        File_layout.internode ~space ~d ~v:0 ~num_blocks ~v_origin:0 ~slab_height:sh
          ~pattern:(Chunk_pattern.make ~layers)
      in
      let seen = Hashtbl.create 256 in
      let ok = ref true in
      let size = File_layout.size l in
      Data_space.iter space (fun a ->
          let o = File_layout.offset_of l a in
          if o < 0 || o >= size then ok := false;
          if Hashtbl.mem seen o then ok := false;
          Hashtbl.replace seen o ());
      !ok && Hashtbl.length seen = rows * cols)

let prop_owner_matches_slab =
  QCheck.Test.make ~name:"owner is locate's thread" ~count:60 internode_arb
    (fun (rows, cols, layers, num_blocks, transposed, sh) ->
      let space = Data_space.make [| rows; cols |] in
      let d =
        if transposed then Imat.of_rows [ [ 0; 1 ]; [ -1; 0 ] ] else Imat.identity 2
      in
      let pattern = Chunk_pattern.make ~layers in
      let l =
        File_layout.internode ~space ~d ~v:0 ~num_blocks ~v_origin:0 ~slab_height:sh
          ~pattern
      in
      let ok = ref true in
      Data_space.iter space (fun a ->
          let o = File_layout.offset_of l a in
          let owner = Option.get (File_layout.owner_of l a) in
          let t, _ = Chunk_pattern.locate pattern o in
          if t <> owner then ok := false);
      !ok)

let test_scope_improvement_order () =
  (* on the toy column-sweep program the full-hierarchy pattern is at least
     as good as either single-layer variant in footprint terms: its chunks
     are block-aligned *)
  let both = Internode.pattern_for spec4 Internode.Both in
  let io = Internode.pattern_for spec4 Internode.Io_only in
  checkb "both chunk aligned" true (Chunk_pattern.chunk_elems both mod spec4.Internode.align = 0);
  checkb "io-only may be unaligned" true (Chunk_pattern.chunk_elems io >= 1)

let suite =
  suite
  @ [
      ("scope chunk alignment", `Quick, test_scope_improvement_order);
    ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_internode_injective_random; prop_owner_matches_slab ]

(* ---- Relayout (Section 4.3 extension) ----------------------------------- *)

let test_relayout_identity () =
  let space = Data_space.make [| 8; 8 |] in
  let rm = File_layout.Row_major space in
  let p = Relayout.plan ~block_elems:4 ~from_layout:rm ~to_layout:rm in
  check "no moves" 0 p.Relayout.moved;
  check "no src blocks" 0 p.Relayout.src_blocks;
  Alcotest.(check (float 1e-9)) "free" 0. (Relayout.cost_us ~read_us:5. ~write_us:7. p)

let test_relayout_transpose () =
  let space = Data_space.make [| 8; 8 |] in
  let p =
    Relayout.plan ~block_elems:4 ~from_layout:(File_layout.Row_major space)
      ~to_layout:(File_layout.Col_major space)
  in
  (* only the diagonal stays: 64 - 8 moves; all 16 blocks touched *)
  check "moved" 56 p.Relayout.moved;
  check "src blocks" 16 p.Relayout.src_blocks;
  check "dst blocks" 16 p.Relayout.dst_blocks

let test_relayout_moves_ordered () =
  let space = Data_space.make [| 4; 4 |] in
  let last = ref (-1) in
  let count = ref 0 in
  Relayout.iter_moves ~from_layout:(File_layout.Row_major space)
    ~to_layout:(File_layout.Col_major space) (fun m ->
      checkb "source order" true (m.Relayout.src > !last);
      last := m.Relayout.src;
      incr count);
  check "moves" 12 !count

let test_relayout_space_mismatch () =
  Alcotest.check_raises "different spaces"
    (Invalid_argument "Relayout: layouts describe different data spaces") (fun () ->
      ignore
        (Relayout.plan ~block_elems:4
           ~from_layout:(File_layout.Row_major (Data_space.make [| 8; 8 |]))
           ~to_layout:(File_layout.Row_major (Data_space.make [| 4; 4 |]))))

let test_break_even () =
  checkb "amortizes" true
    (Relayout.break_even ~conversion_us:100. ~default_us:60. ~optimized_us:10. = Some 2);
  checkb "never" true
    (Relayout.break_even ~conversion_us:100. ~default_us:10. ~optimized_us:60. = None);
  checkb "at least one run" true
    (Relayout.break_even ~conversion_us:1. ~default_us:100. ~optimized_us:10. = Some 1)

(* ---- template hierarchy (Section 4.3 extension) -------------------------- *)

let test_template_spec () =
  let spec = Internode.template_spec ~fanouts:[| 4; 4; 4 |] ~chunk:64 ~align:64 ~num_blocks:64 in
  check "threads" 64 spec.Internode.threads;
  let p = Internode.pattern_for spec Internode.Both in
  check "chunk preserved" 64 (Chunk_pattern.chunk_elems p);
  checkb "capacity-oblivious (all t_i = 1)" true
    (Array.for_all (( = ) 1) p.Chunk_pattern.reps);
  Alcotest.check_raises "bad chunk" (Invalid_argument "Internode.template_spec: chunk < 1")
    (fun () -> ignore (Internode.template_spec ~fanouts:[| 2 |] ~chunk:0 ~align:1 ~num_blocks:2))

let suite =
  suite
  @ [
      ("relayout identity", `Quick, test_relayout_identity);
      ("relayout transpose", `Quick, test_relayout_transpose);
      ("relayout move ordering", `Quick, test_relayout_moves_ordered);
      ("relayout space mismatch", `Quick, test_relayout_space_mismatch);
      ("relayout break-even", `Quick, test_break_even);
      ("template hierarchy spec", `Quick, test_template_spec);
    ]

(* relayout moves, applied to a scratch file model, reconstruct the target
   layout exactly *)
let prop_relayout_roundtrip =
  let arb =
    QCheck.make
      QCheck.Gen.(
        let* rows = int_range 2 10 in
        let* cols = int_range 2 10 in
        let* transpose = bool in
        return (rows, cols, transpose))
  in
  QCheck.Test.make ~name:"relayout moves reconstruct the target layout" ~count:60 arb
    (fun (rows, cols, transpose) ->
      let space = Data_space.make [| rows; cols |] in
      let from_layout = File_layout.Row_major space in
      let to_layout =
        if transpose then File_layout.Col_major space
        else File_layout.permuted space [| 1; 0 |]
      in
      (* model the file as element-id arrays *)
      let src = Array.make (rows * cols) (-1) in
      Data_space.iter space (fun a ->
          src.(File_layout.offset_of from_layout a) <- Data_space.row_major_index space a);
      let dst = Array.copy src in
      Relayout.iter_moves ~from_layout ~to_layout (fun m ->
          dst.(m.Relayout.dst) <- src.(m.Relayout.src));
      let ok = ref true in
      Data_space.iter space (fun a ->
          if dst.(File_layout.offset_of to_layout a) <> Data_space.row_major_index space a
          then ok := false);
      !ok)

(* compmap assignments are total and bijective for any valid geometry *)
let prop_compmap_total =
  let arb =
    QCheck.make
      QCheck.Gen.(
        let* cluster = int_range 1 8 in
        let* n_clusters = int_range 1 8 in
        return (cluster, cluster * n_clusters))
  in
  QCheck.Test.make ~name:"compmap strategies are bijections" ~count:60 arb
    (fun (cluster, threads) ->
      List.for_all
        (fun s ->
          let image =
            List.init threads (Compmap.assign s ~cluster ~threads ~num_blocks:threads)
          in
          List.sort_uniq compare image = List.init threads Fun.id)
        (Compmap.all_strategies ~cluster ~threads))

let suite =
  suite
  @ List.map QCheck_alcotest.to_alcotest [ prop_relayout_roundtrip; prop_compmap_total ]
