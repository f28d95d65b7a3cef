open Flo_linalg
open Flo_poly

type internode = {
  space : Data_space.t;
  d : Imat.t;
  v : int;
  shift : Ivec.t;
  ext : int array;
  num_blocks : int;
  slab_height : int;
  v_base : int;  (** first slab boundary in [0, slab_height) *)
  anchor : int;  (** slab index holding the image origin (iteration block 0) *)
  pattern : Chunk_pattern.t;
  rest : int;  (** memoized product of the non-partition extents *)
  slab_elems : int;  (** memoized [slab_height * rest] *)
  rest_strides : int array;
      (** memoized row-major strides of the non-partition dimensions:
          [lin_rest a' = sum_k rest_strides.(k) * a'.(k)] with the partition
          dimension's stride zeroed *)
}

type t =
  | Row_major of Data_space.t
  | Col_major of Data_space.t
  | Permuted of Data_space.t * int array
  | Internode of internode

let permuted space order =
  let m = Data_space.rank space in
  if Array.length order <> m then invalid_arg "File_layout.permuted: order length";
  let seen = Array.make m false in
  Array.iter
    (fun k ->
      if k < 0 || k >= m || seen.(k) then invalid_arg "File_layout.permuted: not a permutation";
      seen.(k) <- true)
    order;
  Permuted (space, Array.copy order)

(* Bounding box of the image of [0,N_1) x ... x [0,N_m) under D. *)
let bbox d space =
  let m = Data_space.rank space in
  let lo = Array.make m 0 and hi = Array.make m 0 in
  for r = 0 to m - 1 do
    for j = 0 to m - 1 do
      let c = Imat.get d r j * (Data_space.extent space j - 1) in
      if c < 0 then lo.(r) <- lo.(r) + c else hi.(r) <- hi.(r) + c
    done
  done;
  (lo, hi)

let internode ~space ~d ~v ~num_blocks ~v_origin ~slab_height ~pattern =
  let m = Data_space.rank space in
  if Imat.rows d <> m || Imat.cols d <> m then
    invalid_arg "File_layout.internode: transform shape mismatch";
  if not (Imat.is_unimodular d) then invalid_arg "File_layout.internode: D not unimodular";
  if v < 0 || v >= m then invalid_arg "File_layout.internode: v out of range";
  if num_blocks < 1 then invalid_arg "File_layout.internode: num_blocks < 1";
  if slab_height < 1 then invalid_arg "File_layout.internode: slab_height < 1";
  let lo, hi = bbox d space in
  let shift = Ivec.neg lo in
  let ext = Array.init m (fun r -> hi.(r) - lo.(r) + 1) in
  (* the image origin in shifted coordinates anchors the slab grid so data
     slab k holds exactly iteration block k's elements *)
  let origin = v_origin + shift.(v) in
  let origin = max 0 (min origin (ext.(v) - 1)) in
  let v_base = origin mod slab_height in
  let anchor = if v_base = 0 then origin / slab_height else (origin / slab_height) + 1 in
  (* Step II parameters are pure functions of the layers and the bbox, so
     derive them once here instead of on every offset_of call *)
  let rest_strides = Array.make m 0 in
  let rest = ref 1 in
  for k = m - 1 downto 0 do
    if k <> v then begin
      rest_strides.(k) <- !rest;
      rest := !rest * ext.(k)
    end
  done;
  let rest = !rest in
  Internode
    {
      space; d; v; shift; ext; num_blocks; slab_height; v_base; anchor; pattern;
      rest; slab_elems = slab_height * rest; rest_strides;
    }

let space = function
  | Row_major s | Col_major s | Permuted (s, _) -> s
  | Internode i -> i.space

let slab_height i = i.slab_height

(* slab grid over [0, ext_v): slab 0 = [0, v_base), slab j>=1 starts at
   v_base + (j-1)*slab_height; when v_base = 0 slab 0 is the first full slab *)
let slab_index i vv =
  if vv < i.v_base then 0
  else if i.v_base = 0 then vv / i.slab_height
  else (vv - i.v_base) / i.slab_height + 1

let slab_start i j =
  if j = 0 then 0
  else if i.v_base = 0 then j * i.slab_height
  else i.v_base + ((j - 1) * i.slab_height)

let total_slabs i = slab_index i (i.ext.(i.v) - 1) + 1

(* linearize the non-partition dimensions row-major, in original order *)
let lin_rest i a' =
  let acc = ref 0 in
  Array.iteri (fun k x -> acc := !acc + (i.rest_strides.(k) * x)) a';
  !acc

let slab_coords i ~vv ~lin_rest =
  let j = slab_index i vv in
  let threads = Chunk_pattern.threads i.pattern in
  (* iteration block b's image is slab (anchor + b): owner (j - anchor) mod T
     keeps data owners aligned with the round-robin block distribution *)
  let owner = (((j - i.anchor) mod threads) + threads) mod threads in
  let round = j / threads in
  let lin_in_slab = ((vv - slab_start i j) * i.rest) + lin_rest in
  let rank = (round * i.slab_elems) + lin_in_slab in
  (owner, rank)

let internode_coords i a =
  let a' = Ivec.add (Imat.mul_vec i.d a) i.shift in
  slab_coords i ~vv:a'.(i.v) ~lin_rest:(lin_rest i a')

let offset_of t a =
  if not (Data_space.mem (space t) a) then invalid_arg "File_layout.offset_of: out of range";
  match t with
  | Row_major s -> Data_space.row_major_index s a
  | Col_major s -> Data_space.col_major_index s a
  | Permuted (s, order) ->
    let acc = ref 0 in
    Array.iter (fun k -> acc := (!acc * Data_space.extent s k) + a.(k)) order;
    !acc
  | Internode i ->
    let owner, rank = internode_coords i a in
    Chunk_pattern.offset i.pattern ~thread:owner ~rank

(* strides making each canonical layout a plain dot product:
   [offset_of t a = sum_k strides.(k) * a.(k)]; the inter-node layout is
   piecewise and has no such global linear form *)
let linear_strides t =
  match t with
  | Internode _ -> None
  | Row_major s ->
    let m = Data_space.rank s in
    let strides = Array.make m 1 in
    for k = m - 2 downto 0 do
      strides.(k) <- strides.(k + 1) * Data_space.extent s (k + 1)
    done;
    Some strides
  | Col_major s ->
    let m = Data_space.rank s in
    let strides = Array.make m 1 in
    for k = 1 to m - 1 do
      strides.(k) <- strides.(k - 1) * Data_space.extent s (k - 1)
    done;
    Some strides
  | Permuted (s, order) ->
    let m = Data_space.rank s in
    let strides = Array.make m 1 in
    let acc = ref 1 in
    for j = m - 1 downto 0 do
      strides.(order.(j)) <- !acc;
      acc := !acc * Data_space.extent s order.(j)
    done;
    Some strides

let size t =
  match t with
  | Row_major s | Col_major s | Permuted (s, _) -> Data_space.cardinal s
  | Internode i ->
    let slab_elems = i.slab_elems in
    let threads = Chunk_pattern.threads i.pattern in
    let total = total_slabs i in
    let best = ref 0 in
    for th = 0 to threads - 1 do
      (* slabs owned by th: j with (j - anchor) mod threads = th *)
      let r = (((th + i.anchor) mod threads) + threads) mod threads in
      if r < total then begin
        let count = ((total - r - 1) / threads) + 1 in
        let last_j = r + ((count - 1) * threads) in
        let max_rank = ((last_j / threads) * slab_elems) + slab_elems - 1 in
        let o = Chunk_pattern.offset i.pattern ~thread:th ~rank:max_rank in
        if o >= !best then best := o + 1
      end
    done;
    !best

let owner_of t a =
  match t with
  | Row_major _ | Col_major _ | Permuted _ -> None
  | Internode i ->
    if not (Data_space.mem i.space a) then invalid_arg "File_layout.owner_of: out of range";
    Some (fst (internode_coords i a))

let describe = function
  | Row_major _ -> "row-major"
  | Col_major _ -> "col-major"
  | Permuted (_, order) ->
    Format.asprintf "permuted(%a)"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
         Format.pp_print_int)
      (Array.to_list order)
  | Internode i ->
    Format.asprintf "internode(v=%d, blocks=%d, slab=%d, chunk=%d)" i.v i.num_blocks
      i.slab_height
      (Chunk_pattern.chunk_elems i.pattern)

let pp ppf t = Format.pp_print_string ppf (describe t)
