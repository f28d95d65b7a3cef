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

(* A run-length walk: every quantity the stream depends on is affine in the
   iteration vector, piecewise at worst.

   - Canonical layouts are globally linear in the element coordinates
     (File_layout.linear_strides), so a reference's file offset is one
     functional a = w . i + c of the iteration vector.

   - The inter-node layout is piecewise linear.  Its inputs vv (the
     partition coordinate of D a + shift, functional a) and lin_rest (the
     row-major linearization of the other coordinates, functional b) are
     affine.  Inside one data slab the element's rank is
     rank_base + vv * rest + lin_rest, and inside one chunk of the Step II
     pattern the offset is chunk_off + (rank - chunk_lo): linear again.
     The slab and chunk are cached per reference, and the Step II division
     chain (Chunk_pattern.offset) runs only when a reference leaves one.

   The lexicographic walk is cut into rows.  The outer dimensions are an
   odometer that carries between rows, each carry one precomputed add per
   functional.  The innermost dimension is a counted loop over flat
   per-reference arrays in which each offset advances by a constant step
   for as long as it stays linear: for the whole row under a canonical
   layout, to the end of its slab or chunk under an inter-node one ([run]
   counts the steps left; -1 means recompute).  An offset is held as its
   block index and its position in the block, and the step as a quotient
   and remainder by block_elems, so a step costs no division.

   Quiet runs.  An iteration is quiet when it issues no request: every
   reference's block is the block last read from its file.  After a quiet
   iteration the walk stays quiet for exactly as long as every reference
   stays inside its block window and its linear run: each reference then
   reads the block its file last read, so nothing is issued and no state
   but the offsets changes.  The walk jumps to the first inner step where
   some reference leaves (one division per reference), moving each offset
   by n * step.  A reference whose step is at least block_elems leaves its
   block on every step, so in such a nest no run can be skipped and the
   walk does not test.

   A thread's stream is built in a growable int buffer pair (files /
   indices), with a per-file last-block array for the collapse. *)

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
  block_elems : int;
  limits : int array;  (* per thread: iterations kept, a 1/sample prefix *)
  u : int;  (* the parallel loop *)
  space_lo : int array;
  space_hi : int array;
  (* per reference *)
  files : int array;
  max_file : int;
  inter : File_layout.internode option array;
  (* functionals a (the offset, or vv) and b (lin_rest, or 0) as
     [refs * depth] weights and one constant per reference *)
  wa : int array;
  ca : int array;
  wb : int array;
  cb : int array;
  step : int array;  (* offset change per inner step inside a linear run *)
  squo : int array;  (* step = squo * block_elems + srem, 0 <= srem < block_elems *)
  srem : int array;
  quiet : bool;  (* every |step| < block_elems: quiet runs can be skipped *)
  mutable last_len : int;  (* the last stream's length: the next buffer's first capacity *)
}

(* floor division: [x = q * d + r] with [0 <= r < d] *)
let fdiv x d = if x >= 0 then x / d else -((d - 1 - x) / d)

(* write strides . (mat i + const), as weights over the iteration vector and
   a constant, into reference [r]'s slot of [w] / [c] *)
let compose ~strides mat const w c r =
  let depth = Imat.cols mat in
  for j = 0 to depth - 1 do
    let acc = ref 0 in
    Array.iteri (fun k s -> acc := !acc + (s * Imat.get mat k j)) strides;
    w.((r * depth) + j) <- !acc
  done;
  let acc = ref 0 in
  Array.iteri (fun k s -> acc := !acc + (s * const.(k))) strides;
  c.(r) <- !acc

let create ~layouts ~block_elems ~threads ~blocks_per_thread ?assign ?cluster ?(sample = 1)
    nest =
  if sample < 1 then invalid_arg "Block_walk.create: sample < 1";
  if block_elems < 1 then invalid_arg "Block_walk.create: block_elems < 1";
  let plan = plan_of ~threads ~blocks_per_thread ?assign ?cluster nest in
  let space = nest.Loop_nest.space in
  let depth = Iter_space.depth space in
  let refs = Array.of_list nest.Loop_nest.refs in
  let nrefs = Array.length refs in
  let files = Array.map Access.array_id refs in
  let inter = Array.make nrefs None in
  let wa = Array.make (nrefs * depth) 0 and ca = Array.make nrefs 0 in
  let wb = Array.make (nrefs * depth) 0 and cb = Array.make nrefs 0 in
  let step = Array.make nrefs 0 in
  let inner r w = w.((r * depth) + depth - 1) in
  Array.iteri
    (fun r acc ->
      let layout = layouts files.(r) in
      match (File_layout.linear_strides layout, layout) with
      | Some strides, _ ->
        compose ~strides (Access.matrix acc) (Access.offset acc) wa ca r;
        step.(r) <- inner r wa
      | None, File_layout.Internode il ->
        (* compose the access with the Step I transform once:
           a'(i) = D (M i + q) + shift = (D M) i + (D q + shift) *)
        let mat = Imat.mul il.File_layout.d (Access.matrix acc) in
        let const =
          Ivec.add (Imat.mul_vec il.File_layout.d (Access.offset acc)) il.File_layout.shift
        in
        let unit = Array.make (Imat.rows mat) 0 in
        unit.(il.File_layout.v) <- 1;
        compose ~strides:unit mat const wa ca r;
        compose ~strides:il.File_layout.rest_strides mat const wb cb r;
        inter.(r) <- Some il;
        step.(r) <- (inner r wa * il.File_layout.rest) + inner r wb
      | None, _ -> assert false (* linear_strides covers every canonical layout *))
    refs;
  let squo = Array.map (fun s -> fdiv s block_elems) step in
  {
    plan;
    block_elems;
    (* profile mode keeps a prefix of each thread's iterations: a prefix
       preserves the contiguity structure a strided subsample would break,
       so sampled evaluations transfer to full runs *)
    limits =
      Array.map (fun n -> (n + sample - 1) / sample) (Parallelize.iterations_per_thread plan);
    u = nest.Loop_nest.parallel_dim;
    space_lo = Array.init depth (Iter_space.lo space);
    space_hi = Array.init depth (Iter_space.hi space);
    files;
    max_file = Array.fold_left max 0 files;
    inter;
    wa;
    ca;
    wb;
    cb;
    step;
    squo;
    srem = Array.mapi (fun r s -> s - (squo.(r) * block_elems)) step;
    quiet = Array.for_all (fun s -> abs s < block_elems) step;
    last_len = 0;
  }

(* further steps of [s] from [x] that stay inside [lo, hi) *)
let steps_inside x s ~lo ~hi =
  if s > 0 then (hi - 1 - x) / s else if s < 0 then (x - lo) / -s else max_int

let walk t ~thread =
  (* a fresh buffer per thread, sized like the previous thread's stream:
     threads of one nest issue similar counts, so the doublings (and the
     garbage they leave) mostly vanish *)
  let cap = max 256 t.last_len in
  let buf = { files = Array.make cap 0; indices = Array.make cap 0; len = 0 } in
  let { plan; block_elems = be; u; space_lo; space_hi; files; inter; wa; wb; step; squo; srem; _ } =
    t
  in
  let depth = Array.length space_lo in
  let inner = depth - 1 in
  let nrefs = Array.length files in
  (* row-start values of each functional, and their carry deltas per outer
     dimension for the current slice *)
  let a_row = Array.make nrefs 0 and b_row = Array.make nrefs 0 in
  let da = Array.make (nrefs * depth) 0 and db = Array.make (nrefs * depth) 0 in
  (* the offset at the current iteration as block [idx] and position [pos]
     inside it, and its linear steps left *)
  let idx = Array.make nrefs 0 and pos = Array.make nrefs 0 in
  let run = Array.make nrefs 0 in
  (* inter-node caches: the slab's vv range [slab_lo, slab_hi), its owner
     and rank base; the chunk's first rank and its file offset *)
  let slab_lo = Array.make nrefs 0 and slab_hi = Array.make nrefs 0 in
  let owner = Array.make nrefs 0 and rank_base = Array.make nrefs 0 in
  let chunk_lo = Array.make nrefs 0 and chunk_off = Array.make nrefs 0 in
  (* per-file last-block memory: the I/O runtime buffers one block per open
     file, so a request is only issued when a reference leaves the block it
     last read from that file *)
  let last = Array.make (t.max_file + 1) (-1) in
  let set_offset r off =
    let i = off / be in
    idx.(r) <- i;
    pos.(r) <- off - (i * be)
  in
  (* inter-node reference [r]'s offset and linear run at row position [j] *)
  let refresh r j =
    match inter.(r) with
    | None -> assert false
    | Some il ->
      let k = (r * depth) + inner in
      let sv = wa.(k) in
      let vv = a_row.(r) + (j * sv) and lr = b_row.(r) + (j * wb.(k)) in
      let rest = il.File_layout.rest in
      let new_slab = vv < slab_lo.(r) || vv >= slab_hi.(r) in
      if new_slab then begin
        let s = File_layout.slab_index il vv in
        slab_lo.(r) <- File_layout.slab_start il s;
        slab_hi.(r) <- File_layout.slab_start il (s + 1);
        let o, rank = File_layout.slab_coords il ~vv ~lin_rest:lr in
        owner.(r) <- o;
        rank_base.(r) <- rank - (vv * rest) - lr
      end;
      let rank = rank_base.(r) + (vv * rest) + lr in
      let pattern = il.File_layout.pattern in
      let chunk = Chunk_pattern.chunk_elems pattern in
      if new_slab || rank < chunk_lo.(r) || rank - chunk_lo.(r) >= chunk then begin
        let x = rank - (rank mod chunk) in
        chunk_lo.(r) <- x;
        chunk_off.(r) <- Chunk_pattern.offset pattern ~thread:owner.(r) ~rank:x
      end;
      set_offset r (chunk_off.(r) + (rank - chunk_lo.(r)));
      run.(r) <-
        min
          (steps_inside vv sv ~lo:slab_lo.(r) ~hi:slab_hi.(r))
          (steps_inside rank step.(r) ~lo:chunk_lo.(r) ~hi:(chunk_lo.(r) + chunk))
  in
  (* the first [len] iterations of the current row *)
  let walk_row len =
    for r = 0 to nrefs - 1 do
      match inter.(r) with
      | None ->
        set_offset r a_row.(r);
        run.(r) <- max_int
      | Some _ -> run.(r) <- -1
    done;
    let j = ref 0 in
    while !j < len do
      let quiet = ref true in
      for r = 0 to nrefs - 1 do
        if run.(r) < 0 then refresh r !j;
        let index = idx.(r) and file = files.(r) in
        if last.(file) <> index then begin
          last.(file) <- index;
          push buf ~file ~index;
          quiet := false
        end;
        (* one step, without a division *)
        let p = pos.(r) + srem.(r) in
        if p >= be then begin
          pos.(r) <- p - be;
          idx.(r) <- index + squo.(r) + 1
        end
        else begin
          pos.(r) <- p;
          idx.(r) <- index + squo.(r)
        end;
        run.(r) <- run.(r) - 1
      done;
      incr j;
      if !quiet && t.quiet then begin
        (* after a quiet iteration every reference's block is its file's
           last block: iterations j, j + 1, ... stay quiet while every
           reference stays in that block and in its linear run *)
        let n = ref (len - !j) and r = ref 0 in
        while !n > 0 && !r < nrefs do
          let r' = !r in
          let s = step.(r') in
          let inside =
            if idx.(r') <> last.(files.(r')) then 0
            else if s = 0 then max_int
            else 1 + steps_inside pos.(r') s ~lo:0 ~hi:be
          in
          n := min !n (min (run.(r') + 1) inside);
          incr r
        done;
        let n = !n in
        if n > 0 then begin
          for r = 0 to nrefs - 1 do
            let p = pos.(r) + (n * step.(r)) in
            let q = fdiv p be in
            idx.(r) <- idx.(r) + q;
            pos.(r) <- p - (q * be);
            run.(r) <- run.(r) - n
          done;
          j := !j + n
        end
      end
    done
  in
  let remaining = ref t.limits.(thread) in
  let lo = Array.copy space_lo and hi = Array.copy space_hi in
  let v = Array.make depth 0 in
  (* the functional's value at the slice's corner, and the delta of one
     odometer carry at each outer dimension k: +w_k, minus the unwind of
     the outer dimensions between k and the row *)
  let setup w c row delta r =
    let base = r * depth in
    let x = ref c.(r) in
    for j = 0 to depth - 1 do
      x := !x + (w.(base + j) * lo.(j))
    done;
    row.(r) <- !x;
    for k = 0 to inner - 1 do
      let d = ref w.(base + k) in
      for j = k + 1 to inner - 1 do
        d := !d - (w.(base + j) * (hi.(j) - lo.(j)))
      done;
      delta.(base + k) <- !d
    done
  in
  List.iter
    (fun b ->
      let blo, bhi = Parallelize.block_range plan b in
      let blo = max blo space_lo.(u) and bhi = min bhi space_hi.(u) in
      if blo <= bhi && !remaining > 0 then begin
        lo.(u) <- blo;
        hi.(u) <- bhi;
        Array.blit lo 0 v 0 depth;
        for r = 0 to nrefs - 1 do
          setup wa t.ca a_row da r;
          setup wb t.cb b_row db r
        done;
        let row_len = hi.(inner) - lo.(inner) + 1 in
        let rows = ref true in
        while !rows do
          let len = min row_len !remaining in
          walk_row len;
          remaining := !remaining - len;
          (* odometer over the outer dimensions: bump the deepest one not
             at its bound, reset the ones inside it *)
          let k = ref (inner - 1) in
          while !k >= 0 && v.(!k) = hi.(!k) do
            decr k
          done;
          if !k < 0 || !remaining = 0 then rows := false
          else begin
            let k = !k in
            v.(k) <- v.(k) + 1;
            for j = k + 1 to inner - 1 do
              v.(j) <- lo.(j)
            done;
            for r = 0 to nrefs - 1 do
              a_row.(r) <- a_row.(r) + da.((r * depth) + k);
              b_row.(r) <- b_row.(r) + db.((r * depth) + k)
            done
          end
        done
      end)
    (Parallelize.blocks_of_thread plan thread);
  t.last_len <- buf.len;
  buf
