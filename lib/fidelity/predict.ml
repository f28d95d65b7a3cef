open Flo_poly
open Flo_core

type layer_expect = {
  level : int;
  capacity : int;
  fanout : int;
  reps : int;
  threads_sharing : int;
  chunks_per_thread : int;
  capacity_blocks : int;
}

type array_prediction = {
  array_id : int;
  array_name : string;
  layout : string;
  optimized : bool;
  chunk_elems : int option;
  block_aligned : bool;
  layers : layer_expect list;
}

type t = {
  app : string;
  threads : int;
  block_elems : int;
  blocks_per_thread : int;
  sample : int;
  arrays : array_prediction list;
  distinct : ((int * int) * int) list;
  cross_shared_blocks : int;
  cross_pairs : int;
  distinct_blocks : int;
  single_owner : bool;
}

let layer_expectations ~block_elems (p : Chunk_pattern.t) =
  let n = Array.length p.Chunk_pattern.layers in
  List.init n (fun i ->
      let { Chunk_pattern.capacity; fanout } = p.Chunk_pattern.layers.(i) in
      let threads_sharing =
        Array.fold_left
          (fun acc (ly : Chunk_pattern.layer) -> acc * ly.Chunk_pattern.fanout)
          1
          (Array.sub p.Chunk_pattern.layers 0 (i + 1))
      in
      let chunks_per_thread = capacity / threads_sharing / p.Chunk_pattern.chunk in
      {
        level = i + 1;
        capacity;
        fanout;
        reps = (if i < n - 1 then p.Chunk_pattern.reps.(i) else 1);
        threads_sharing;
        chunks_per_thread;
        capacity_blocks = capacity / block_elems;
      })

let array_prediction ~block_elems (decl : Program.array_decl) layout =
  let chunk =
    match layout with
    | File_layout.Internode i -> Some (Chunk_pattern.chunk_elems i.File_layout.pattern)
    | _ -> None
  in
  {
    array_id = decl.Program.id;
    array_name = decl.Program.name;
    layout = File_layout.describe layout;
    optimized = (match layout with File_layout.Internode _ -> true | _ -> false);
    chunk_elems = chunk;
    block_aligned = (match chunk with Some c -> c mod block_elems = 0 | None -> false);
    layers =
      (match layout with
      | File_layout.Internode i ->
        layer_expectations ~block_elems i.File_layout.pattern
      | _ -> []);
  }

(* One walk per nest, the same one the run's request streams come from.
   Threads are walked in ascending order, each across every nest, so a
   block's stamp (the last thread that touched it) differs from the current
   thread exactly on that thread's first touch of the block. *)
let compute ?(blocks_per_thread = 1) ?(sample = 1) ~block_elems ~threads ~name ~layouts
    (program : Program.t) =
  if sample < 1 then invalid_arg "Predict.compute: sample < 1";
  if block_elems < 1 then invalid_arg "Predict.compute: block_elems < 1";
  let walks =
    List.map
      (Block_walk.create ~layouts ~block_elems ~threads ~blocks_per_thread ~sample)
      program.Program.nests
  in
  let ids = Program.array_ids program in
  let files = 1 + List.fold_left max 0 ids in
  (* per file, indexed by block and grown on demand: stamp and degree
     (distinct threads) *)
  let stamp = Array.make files [||] and degree = Array.make files [||] in
  let grow a n fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  let counts = Array.make (threads * files) 0 in
  let distinct_blocks = ref 0 and cross_shared_blocks = ref 0 and cross_pairs = ref 0 in
  for thread = 0 to threads - 1 do
    List.iter
      (fun walk ->
        let s = Block_walk.walk walk ~thread in
        for i = 0 to s.Block_walk.len - 1 do
          let file = s.Block_walk.files.(i) and block = s.Block_walk.indices.(i) in
          if block >= Array.length stamp.(file) then begin
            let n = max (block + 1) (2 * Array.length stamp.(file)) in
            stamp.(file) <- grow stamp.(file) n (-1);
            degree.(file) <- grow degree.(file) n 0
          end;
          let st = stamp.(file) in
          if st.(block) <> thread then begin
            st.(block) <- thread;
            let c = (thread * files) + file in
            counts.(c) <- counts.(c) + 1;
            let d = degree.(file) in
            let k = d.(block) in
            d.(block) <- k + 1;
            cross_pairs := !cross_pairs + k;
            if k = 0 then incr distinct_blocks else if k = 1 then incr cross_shared_blocks
          end
        done)
      walks
  done;
  let distinct =
    List.concat
      (List.init threads (fun thread ->
           List.filter_map
             (fun file ->
               let n = counts.((thread * files) + file) in
               if n > 0 then Some ((thread, file), n) else None)
             (List.init files Fun.id)))
  in
  let arrays =
    List.map
      (fun id -> array_prediction ~block_elems (Program.array_decl program id) (layouts id))
      ids
  in
  {
    app = name;
    threads;
    block_elems;
    blocks_per_thread;
    sample;
    arrays;
    distinct;
    cross_shared_blocks = !cross_shared_blocks;
    cross_pairs = !cross_pairs;
    distinct_blocks = !distinct_blocks;
    single_owner = !cross_shared_blocks = 0;
  }

let total_distinct t ~thread =
  List.fold_left
    (fun acc ((th, _), n) -> if th = thread then acc + n else acc)
    0 t.distinct

let threads_seen t =
  List.fold_left (fun acc ((th, _), _) -> max acc (th + 1)) 0 t.distinct

let pp_layer ppf l =
  Format.fprintf ppf "L%d: S=%d N=%d t=%d sharing=%d chunks/thread=%d (%d blocks)"
    l.level l.capacity l.fanout l.reps l.threads_sharing l.chunks_per_thread
    l.capacity_blocks
