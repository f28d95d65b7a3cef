open Flo_linalg
open Flo_poly

let plan_of ~threads ~blocks_per_thread ?assign ?cluster nest =
  let u = nest.Loop_nest.parallel_dim in
  let extent = Iter_space.extent nest.Loop_nest.space u in
  let num_blocks = min (threads * blocks_per_thread) extent in
  match assign with
  | None -> Parallelize.custom ~threads ~num_blocks ~assign:(fun b -> b mod threads) nest
  | Some strategy ->
    let cluster =
      match cluster with
      | Some c -> c
      | None -> invalid_arg "Block_walk.plan_of: assign requires cluster"
    in
    Parallelize.custom ~threads ~num_blocks
      ~assign:(fun b -> Compmap.assign strategy ~cluster ~threads ~num_blocks b)
      nest

(* Strength reduction: every quantity the stream depends on is affine in
   the iteration vector.

   - Canonical layouts are globally linear in the element coordinates
     (File_layout.linear_strides), and the element coordinates are affine
     in the iteration vector, so the file offset itself is one affine
     functional w . i + c: stepping the innermost loop adds w_inner,
     carrying into an outer loop adds a precomputable carry delta.  No
     per-element vector allocation, no transform, no division — the block
     index only needs a division when the offset leaves the current
     block's [lo, lo + block_elems) window.

   - The inter-node layout is piecewise linear: its two inputs vv (the
     partition coordinate of D a + shift) and lin_rest (the row-major
     linearization of the other coordinates) are each affine in the
     iteration vector, so the same cursor machinery tracks them and
     File_layout.offset_of_transformed finishes the job on memoized Step II
     parameters.

   A thread's stream is built in a growable int buffer pair (files /
   indices), with a per-file last-block array for the collapse. *)

(* one affine functional w . i + c over the iteration space, evaluated
   incrementally along the lexicographic walk *)
type functional = { w : int array; c : int }

(* per-(ref, layout) immutable description *)
type ref_spec =
  | Linear_ref of { file : int; off : functional }
  | Inter_ref of {
      file : int;
      il : File_layout.internode;
      vv : functional;
      lr : functional;
    }

(* per-thread mutable evaluation state for one ref_spec *)
type cursor = {
  spec : ref_spec;
  mutable cur_off : int;  (* Linear_ref: current offset *)
  mutable cur_vv : int;  (* Inter_ref: current vv *)
  mutable cur_lr : int;  (* Inter_ref: current lin_rest *)
  (* carry deltas for the current block slice, one per loop dimension *)
  off_delta : int array;
  vv_delta : int array;
  lr_delta : int array;
  (* current block window: index valid while cur_off in [blk_lo, blk_lo +
     block_elems); initialized to an empty window below any valid offset *)
  mutable blk_lo : int;
  mutable blk_idx : int;
}

(* w . i + c for the access row weighted by [strides]: the layout offset
   (resp. vv / lin_rest component) as one functional of the iteration
   vector *)
let compose_functional ~strides mat const =
  let m = Array.length strides in
  let depth = Imat.cols mat in
  let w = Array.make depth 0 in
  for j = 0 to depth - 1 do
    let acc = ref 0 in
    for k = 0 to m - 1 do
      acc := !acc + (strides.(k) * Imat.get mat k j)
    done;
    w.(j) <- !acc
  done;
  let c = ref 0 in
  for k = 0 to m - 1 do
    c := !c + (strides.(k) * const.(k))
  done;
  { w; c = !c }

let unit_strides v m =
  let s = Array.make m 0 in
  s.(v) <- 1;
  s

let spec_of_ref ~layouts r =
  let file = Access.array_id r in
  let layout = layouts file in
  match File_layout.linear_strides layout with
  | Some strides ->
    Linear_ref { file; off = compose_functional ~strides (Access.matrix r) (Access.offset r) }
  | None -> (
    match layout with
    | File_layout.Internode il ->
      (* compose the access with the Step I transform once:
         a'(i) = D (M i + q) + shift = (D M) i + (D q + shift) *)
      let mat = Imat.mul il.File_layout.d (Access.matrix r) in
      let const =
        Ivec.add (Imat.mul_vec il.File_layout.d (Access.offset r)) il.File_layout.shift
      in
      let m = Imat.rows mat in
      Inter_ref
        {
          file;
          il;
          vv = compose_functional ~strides:(unit_strides il.File_layout.v m) mat const;
          lr = compose_functional ~strides:il.File_layout.rest_strides mat const;
        }
    | _ -> assert false (* linear_strides covers every canonical layout *))

let cursor_of_spec ~block_elems depth spec =
  {
    spec;
    cur_off = 0;
    cur_vv = 0;
    cur_lr = 0;
    off_delta = Array.make depth 0;
    vv_delta = Array.make depth 0;
    lr_delta = Array.make depth 0;
    (* empty window below every valid (nonnegative) offset, chosen so
       [off - blk_lo] cannot overflow *)
    blk_lo = -block_elems;
    blk_idx = -1;
  }

(* position the cursor at the lexicographic corner of a slice and
   precompute, per dimension k, the delta of one odometer step at k:
   +w_k for the increment, minus the full unwind of every inner dimension *)
let init_cursor_for_slice cursor ~lo ~hi =
  let depth = Array.length lo in
  let setup (f : functional) delta =
    let v = ref f.c in
    for j = 0 to depth - 1 do
      v := !v + (f.w.(j) * lo.(j))
    done;
    for k = 0 to depth - 1 do
      let d = ref f.w.(k) in
      for j = k + 1 to depth - 1 do
        d := !d - (f.w.(j) * (hi.(j) - lo.(j)))
      done;
      delta.(k) <- !d
    done;
    !v
  in
  match cursor.spec with
  | Linear_ref { off; _ } -> cursor.cur_off <- setup off cursor.off_delta
  | Inter_ref { vv; lr; _ } ->
    cursor.cur_vv <- setup vv cursor.vv_delta;
    cursor.cur_lr <- setup lr cursor.lr_delta

let step_cursor cursor k =
  match cursor.spec with
  | Linear_ref _ -> cursor.cur_off <- cursor.cur_off + cursor.off_delta.(k)
  | Inter_ref _ ->
    cursor.cur_vv <- cursor.cur_vv + cursor.vv_delta.(k);
    cursor.cur_lr <- cursor.cur_lr + cursor.lr_delta.(k)

(* growable (file, index) pair buffer: the only allocations on the hot path
   are the amortized doublings *)
type stream = {
  mutable files : int array;
  mutable indices : int array;
  mutable len : int;
}

let push b ~file ~index =
  if b.len = Array.length b.files then begin
    let cap = 2 * b.len in
    let files = Array.make cap 0 and indices = Array.make cap 0 in
    Array.blit b.files 0 files 0 b.len;
    Array.blit b.indices 0 indices 0 b.len;
    b.files <- files;
    b.indices <- indices
  end;
  b.files.(b.len) <- file;
  b.indices.(b.len) <- index;
  b.len <- b.len + 1

type t = {
  plan : Parallelize.t;
  specs : ref_spec array;
  block_elems : int;
  limits : int array;  (* per thread: iterations kept, a 1/sample prefix *)
  max_file : int;
  u : int;  (* the parallel loop *)
  space_lo : int array;
  space_hi : int array;
}

let create ~layouts ~block_elems ~threads ~blocks_per_thread ?assign ?cluster ?(sample = 1)
    nest =
  if sample < 1 then invalid_arg "Block_walk.create: sample < 1";
  if block_elems < 1 then invalid_arg "Block_walk.create: block_elems < 1";
  let plan = plan_of ~threads ~blocks_per_thread ?assign ?cluster nest in
  let space = nest.Loop_nest.space in
  let depth = Iter_space.depth space in
  let specs = Array.of_list (List.map (spec_of_ref ~layouts) nest.Loop_nest.refs) in
  {
    plan;
    specs;
    block_elems;
    (* profile mode keeps a prefix of each thread's iterations: a prefix
       preserves the contiguity structure a strided subsample would break,
       so sampled evaluations transfer to full runs *)
    limits =
      Array.map (fun n -> (n + sample - 1) / sample) (Parallelize.iterations_per_thread plan);
    max_file =
      Array.fold_left
        (fun m s -> max m (match s with Linear_ref r -> r.file | Inter_ref r -> r.file))
        0 specs;
    u = nest.Loop_nest.parallel_dim;
    space_lo = Array.init depth (Iter_space.lo space);
    space_hi = Array.init depth (Iter_space.hi space);
  }

exception Done

let walk t ~thread =
  let buf = { files = Array.make 256 0; indices = Array.make 256 0; len = 0 } in
  let { plan; specs; block_elems; u; space_lo; space_hi; _ } = t in
  let depth = Array.length space_lo in
  let nrefs = Array.length specs in
  let cursors = Array.map (cursor_of_spec ~block_elems depth) specs in
  (* per-file last-block memory: the I/O runtime buffers one block per open
     file, so a request is only issued when a reference leaves the block it
     last read from that file *)
  let last = Array.make (t.max_file + 1) (-1) in
  let limit = t.limits.(thread) in
  let kept = ref 0 in
  let lo = Array.copy space_lo and hi = Array.copy space_hi in
  let v = Array.make depth 0 in
  let visit () =
    if !kept >= limit then raise Done;
    incr kept;
    for r = 0 to nrefs - 1 do
      let c = cursors.(r) in
      let off =
        match c.spec with
        | Linear_ref _ -> c.cur_off
        | Inter_ref { il; _ } ->
          File_layout.offset_of_transformed il ~vv:c.cur_vv ~lin_rest:c.cur_lr
      in
      let index =
        if off >= c.blk_lo && off - c.blk_lo < block_elems then c.blk_idx
        else begin
          let i = off / block_elems in
          c.blk_idx <- i;
          c.blk_lo <- i * block_elems;
          i
        end
      in
      let file = match c.spec with Linear_ref r -> r.file | Inter_ref r -> r.file in
      if last.(file) <> index then begin
        last.(file) <- index;
        push buf ~file ~index
      end
    done
  in
  (try
     List.iter
       (fun b ->
         let blo, bhi = Parallelize.block_range plan b in
         let blo = max blo space_lo.(u) and bhi = min bhi space_hi.(u) in
         if blo <= bhi then begin
           lo.(u) <- blo;
           hi.(u) <- bhi;
           Array.blit lo 0 v 0 depth;
           Array.iter (fun c -> init_cursor_for_slice c ~lo ~hi) cursors;
           visit ();
           (* odometer over the slice in lexicographic order: find the
              deepest incrementable dimension, bump it, reset the inner
              ones — each cursor absorbs the whole step as one add *)
           let continue = ref true in
           while !continue do
             let k = ref (depth - 1) in
             while !k >= 0 && v.(!k) = hi.(!k) do
               decr k
             done;
             if !k < 0 then continue := false
             else begin
               let k = !k in
               v.(k) <- v.(k) + 1;
               for j = k + 1 to depth - 1 do
                 v.(j) <- lo.(j)
               done;
               Array.iter (fun c -> step_cursor c k) cursors;
               visit ()
             end
           done
         end)
       (Parallelize.blocks_of_thread plan thread)
   with Done -> ());
  buf
