open Flo_linalg
open Flo_poly

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ---- Affine ---------------------------------------------------------- *)

let test_affine_apply () =
  let f = Affine.make (Imat.of_rows [ [ 1; 0 ]; [ 1; 1 ] ]) [| 2; 0 |] in
  checkb "apply" true (Ivec.equal (Affine.apply f [| 3; 4 |]) [| 5; 7 |]);
  check "in_dim" 2 (Affine.in_dim f);
  check "out_dim" 2 (Affine.out_dim f)

let test_affine_compose () =
  let f = Affine.make (Imat.of_rows [ [ 2; 0 ]; [ 0; 1 ] ]) [| 1; 1 |] in
  let g = Affine.make (Imat.of_rows [ [ 0; 1 ]; [ 1; 0 ] ]) [| 0; 3 |] in
  let fg = Affine.compose f g in
  let x = [| 5; 7 |] in
  checkb "compose = f after g" true
    (Ivec.equal (Affine.apply fg x) (Affine.apply f (Affine.apply g x)))

let test_affine_identity () =
  let id = Affine.identity 3 in
  checkb "identity" true (Ivec.equal (Affine.apply id [| 1; 2; 3 |]) [| 1; 2; 3 |]);
  Alcotest.check_raises "offset mismatch"
    (Invalid_argument "Affine.make: offset dimension mismatch") (fun () ->
      ignore (Affine.make (Imat.identity 2) [| 0 |]))

(* ---- Iter_space ------------------------------------------------------ *)

let test_iter_space () =
  let s = Iter_space.make [| (0, 3); (1, 2) |] in
  check "depth" 2 (Iter_space.depth s);
  check "cardinal" 8 (Iter_space.cardinal s);
  check "extent" 4 (Iter_space.extent s 0);
  check "lo" 1 (Iter_space.lo s 1);
  check "hi" 2 (Iter_space.hi s 1);
  checkb "mem" true (Iter_space.mem s [| 2; 1 |]);
  checkb "not mem" false (Iter_space.mem s [| 4; 1 |]);
  checkb "wrong dim" false (Iter_space.mem s [| 1 |]);
  Alcotest.check_raises "lo > hi" (Invalid_argument "Iter_space.make: lo > hi") (fun () ->
      ignore (Iter_space.make [| (3, 1) |]))

let test_iter_space_iter () =
  let s = Iter_space.make [| (0, 1); (0, 2) |] in
  let seen = ref [] in
  Iter_space.iter s (fun v -> seen := Array.copy v :: !seen);
  check "count" 6 (List.length !seen);
  checkb "lexicographic order" true
    (List.rev !seen
    = [ [| 0; 0 |]; [| 0; 1 |]; [| 0; 2 |]; [| 1; 0 |]; [| 1; 1 |]; [| 1; 2 |] ])

let test_iter_slice () =
  let s = Iter_space.make [| (0, 7); (0, 1) |] in
  let n = ref 0 in
  Iter_space.iter_slice s ~dim:0 ~lo:2 ~hi:4 (fun _ -> incr n);
  check "slice count" 6 !n;
  n := 0;
  Iter_space.iter_slice s ~dim:0 ~lo:6 ~hi:20 (fun _ -> incr n);
  check "clamped slice" 4 !n;
  n := 0;
  Iter_space.iter_slice s ~dim:0 ~lo:9 ~hi:20 (fun _ -> incr n);
  check "void slice" 0 !n

(* ---- Data_space ------------------------------------------------------ *)

let test_data_space () =
  let s = Data_space.make [| 4; 3 |] in
  check "rank" 2 (Data_space.rank s);
  check "cardinal" 12 (Data_space.cardinal s);
  check "extent" 3 (Data_space.extent s 1);
  checkb "mem" true (Data_space.mem s [| 3; 2 |]);
  checkb "not mem" false (Data_space.mem s [| 4; 0 |]);
  Alcotest.check_raises "nonpositive extent"
    (Invalid_argument "Data_space.make: nonpositive extent") (fun () ->
      ignore (Data_space.make [| 4; 0 |]))

let test_data_space_indexing () =
  let s = Data_space.make [| 4; 3 |] in
  check "row major" 5 (Data_space.row_major_index s [| 1; 2 |]);
  check "col major" 9 (Data_space.col_major_index s [| 1; 2 |]);
  checkb "round trip" true
    (Ivec.equal (Data_space.of_row_major s 5) [| 1; 2 |]);
  (* row-major enumeration matches index order *)
  let i = ref 0 in
  let ok = ref true in
  Data_space.iter s (fun a ->
      if Data_space.row_major_index s a <> !i then ok := false;
      incr i);
  checkb "iter matches row-major" true !ok;
  check "iter count" 12 !i

let test_data_space_bijections () =
  let s = Data_space.make [| 3; 5; 2 |] in
  let seen = Hashtbl.create 30 in
  Data_space.iter s (fun a ->
      let rm = Data_space.row_major_index s a in
      let cm = Data_space.col_major_index s a in
      checkb "rm in range" true (rm >= 0 && rm < 30);
      checkb "cm in range" true (cm >= 0 && cm < 30);
      Hashtbl.replace seen (rm, cm) ());
  check "bijective" 30 (Hashtbl.length seen)

(* ---- Access ----------------------------------------------------------- *)

let test_access () =
  let r = Access.ji ~array_id:7 in
  check "array id" 7 (Access.array_id r);
  check "rank" 2 (Access.rank r);
  check "depth" 2 (Access.depth r);
  checkb "eval swaps" true (Ivec.equal (Access.eval r [| 3; 9 |]) [| 9; 3 |]);
  let d = Imat.of_rows [ [ 0; 1 ]; [ 1; 0 ] ] in
  let r' = Access.transform d r in
  checkb "transformed is identity" true (Imat.equal (Access.matrix r') (Imat.identity 2));
  checkb "same matrix" true (Access.same_matrix (Access.ij ~array_id:1) (Access.ij ~array_id:2));
  checkb "diag eval" true (Ivec.equal (Access.eval (Access.diag ~array_id:0) [| 2; 3 |]) [| 5; 3 |])

(* ---- Loop_nest -------------------------------------------------------- *)

let space44 = Iter_space.make [| (0, 3); (0, 3) |]

let test_loop_nest () =
  let nest = Loop_nest.make ~weight:3 ~parallel_dim:0 space44 [ Access.ij ~array_id:0 ] in
  check "depth" 2 (Loop_nest.depth nest);
  check "trip count includes weight" 48 (Loop_nest.trip_count nest);
  check "refs_to" 1 (List.length (Loop_nest.refs_to nest 0));
  check "refs_to other" 0 (List.length (Loop_nest.refs_to nest 1));
  checkb "arrays touched" true (Loop_nest.arrays_touched nest = [ 0 ]);
  Alcotest.check_raises "bad parallel dim"
    (Invalid_argument "Loop_nest.make: parallel_dim out of range") (fun () ->
      ignore (Loop_nest.make ~parallel_dim:2 space44 [ Access.ij ~array_id:0 ]));
  Alcotest.check_raises "no refs" (Invalid_argument "Loop_nest.make: no references")
    (fun () -> ignore (Loop_nest.make ~parallel_dim:0 space44 []));
  Alcotest.check_raises "depth mismatch"
    (Invalid_argument "Loop_nest.make: reference depth mismatch") (fun () ->
      ignore
        (Loop_nest.make ~parallel_dim:0 space44
           [ Access.of_rows ~array_id:0 [ [ 1; 0; 0 ]; [ 0; 1; 0 ] ] [ 0; 0 ] ]))

(* ---- Program ---------------------------------------------------------- *)

let decl id name n = Program.declare ~id ~name (Data_space.make [| n; n |])

let test_program () =
  let p =
    Program.make ~name:"p"
      [ decl 0 "a" 4; decl 1 "b" 4 ]
      [ Loop_nest.make ~parallel_dim:0 space44 [ Access.ij ~array_id:0; Access.ji ~array_id:1 ] ]
  in
  checkb "ids" true (Program.array_ids p = [ 0; 1 ]);
  check "refs to 0" 1 (List.length (Program.refs_to p 0));
  check "total trip" 16 (Program.total_trip_count p);
  checkb "decl lookup" true ((Program.array_decl p 1).Program.name = "b");
  checkb "opaque default" false (Program.array_decl p 0).Program.opaque;
  Alcotest.check_raises "undeclared"
    (Invalid_argument "Program.make: reference to undeclared array") (fun () ->
      ignore
        (Program.make ~name:"bad" [ decl 0 "a" 4 ]
           [ Loop_nest.make ~parallel_dim:0 space44 [ Access.ij ~array_id:9 ] ]));
  Alcotest.check_raises "duplicate ids" (Invalid_argument "Program.make: duplicate array ids")
    (fun () -> ignore (Program.make ~name:"bad" [ decl 0 "a" 4; decl 0 "b" 4 ] []));
  Alcotest.check_raises "rank mismatch"
    (Invalid_argument "Program.make: reference rank mismatch") (fun () ->
      ignore
        (Program.make ~name:"bad"
           [ Program.declare ~id:0 ~name:"a" (Data_space.make [| 4; 4; 4 |]) ]
           [ Loop_nest.make ~parallel_dim:0 space44 [ Access.ij ~array_id:0 ] ]))

let test_program_opaque () =
  let d = Program.declare ~opaque:true ~id:0 ~name:"x" (Data_space.make [| 2; 2 |]) in
  checkb "opaque set" true d.Program.opaque

(* ---- Parallelize ------------------------------------------------------ *)

let nest16 =
  Loop_nest.make ~parallel_dim:0
    (Iter_space.make [| (0, 15); (0, 3) |])
    [ Access.ij ~array_id:0 ]

let test_round_robin () =
  let p = Parallelize.round_robin ~threads:4 nest16 in
  check "num blocks" 4 p.Parallelize.num_blocks;
  checkb "block 0 range" true (Parallelize.block_range p 0 = (0, 3));
  checkb "block 3 range" true (Parallelize.block_range p 3 = (12, 15));
  check "owner rr" 1 (Parallelize.owner p 1);
  checkb "blocks of thread" true (Parallelize.blocks_of_thread p 2 = [ 2 ]);
  let counts = Parallelize.iterations_per_thread p in
  checkb "balanced" true (Array.for_all (fun c -> c = 16) counts)

let test_round_robin_multi_block () =
  let p = Parallelize.round_robin ~threads:4 ~blocks_per_thread:2 nest16 in
  check "num blocks" 8 p.Parallelize.num_blocks;
  checkb "thread 1 blocks" true (Parallelize.blocks_of_thread p 1 = [ 1; 5 ]);
  checkb "block 5 range" true (Parallelize.block_range p 5 = (10, 11))

let test_uneven_last_block () =
  let nest =
    Loop_nest.make ~parallel_dim:0
      (Iter_space.make [| (0, 9); (0, 0) |])
      [ Access.ij ~array_id:0 ]
  in
  let p = Parallelize.round_robin ~threads:3 nest in
  (* ceil(10/3) = 4 -> ranges 0-3, 4-7, 8-9 *)
  checkb "block 2 smaller" true (Parallelize.block_range p 2 = (8, 9));
  let counts = Parallelize.iterations_per_thread p in
  checkb "last thread lighter" true (counts.(2) = 2 && counts.(0) = 4)

let test_iter_thread () =
  let p = Parallelize.round_robin ~threads:4 nest16 in
  let seen = ref [] in
  Parallelize.iter_thread p ~thread:1 (fun v -> seen := Array.copy v :: !seen);
  check "iterations" 16 (List.length !seen);
  checkb "all in block range" true
    (List.for_all (fun v -> v.(0) >= 4 && v.(0) <= 7) !seen)

let test_custom_assign () =
  let p = Parallelize.custom ~threads:4 ~num_blocks:4 ~assign:(fun b -> 3 - b) nest16 in
  check "reversed owner" 3 (Parallelize.owner p 0);
  checkb "thread 0 owns block 3" true (Parallelize.blocks_of_thread p 0 = [ 3 ]);
  let bad = Parallelize.custom ~threads:4 ~num_blocks:4 ~assign:(fun _ -> 9) nest16 in
  Alcotest.check_raises "assign out of range"
    (Invalid_argument "Parallelize: assign out of range") (fun () ->
      ignore (Parallelize.owner bad 0))

let test_more_blocks_than_iterations () =
  Alcotest.check_raises "too many blocks"
    (Invalid_argument "Parallelize: more blocks than parallel iterations") (fun () ->
      ignore (Parallelize.round_robin ~threads:32 nest16))

(* threads' iterations partition the space exactly *)
let prop_partition_exact =
  QCheck.Test.make ~name:"thread iterations partition the space" ~count:50
    (QCheck.pair (QCheck.int_range 1 8) (QCheck.int_range 1 3))
    (fun (threads, bpt) ->
      QCheck.assume (threads * bpt <= 16);
      let p = Parallelize.round_robin ~threads ~blocks_per_thread:bpt nest16 in
      let seen = Hashtbl.create 64 in
      for t = 0 to threads - 1 do
        Parallelize.iter_thread p ~thread:t (fun v ->
            let key = (v.(0), v.(1)) in
            if Hashtbl.mem seen key then failwith "duplicate iteration";
            Hashtbl.replace seen key ())
      done;
      Hashtbl.length seen = 64)

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_partition_exact ]

let suite =
  [
    ("affine apply", `Quick, test_affine_apply);
    ("affine compose", `Quick, test_affine_compose);
    ("affine identity", `Quick, test_affine_identity);
    ("iter space basics", `Quick, test_iter_space);
    ("iter space enumeration", `Quick, test_iter_space_iter);
    ("iter space slices", `Quick, test_iter_slice);
    ("data space basics", `Quick, test_data_space);
    ("data space indexing", `Quick, test_data_space_indexing);
    ("data space bijections", `Quick, test_data_space_bijections);
    ("access references", `Quick, test_access);
    ("loop nest", `Quick, test_loop_nest);
    ("program validation", `Quick, test_program);
    ("program opaque arrays", `Quick, test_program_opaque);
    ("parallelize round robin", `Quick, test_round_robin);
    ("parallelize multi-block", `Quick, test_round_robin_multi_block);
    ("parallelize uneven last block", `Quick, test_uneven_last_block);
    ("parallelize iter_thread", `Quick, test_iter_thread);
    ("parallelize custom assignment", `Quick, test_custom_assign);
    ("parallelize too many blocks", `Quick, test_more_blocks_than_iterations);
  ]
  @ qsuite
