(** File layouts: mappings from array elements to linear file offsets.

    Besides the canonical row/column-major layouts and dimension
    permutations (the search space of the reindexing baseline [27]), this
    provides the paper's {e inter-node} layout: a unimodular data transform
    [D] (Step I) composed with the hierarchy-aware chunk interleaving
    (Step II).

    For a non-permutation [D] the transformed data space is a parallelepiped;
    we linearize over its bounding box with the partition dimension
    outermost, so the file may contain unused holes (never overlaps) — see
    DESIGN.md. *)

open Flo_linalg
open Flo_poly

type internode = {
  space : Data_space.t;  (** original data space *)
  d : Imat.t;  (** unimodular transform; partition dim is row [v] *)
  v : int;
  shift : Ivec.t;  (** [- bbox lower corner] of the transformed space *)
  ext : int array;  (** bbox extents of the transformed space *)
  num_blocks : int;  (** iteration blocks the parallel loop was cut into *)
  slab_height : int;  (** extent along [v] of one data slab *)
  v_base : int;  (** first slab boundary, in [0, slab_height) *)
  anchor : int;  (** slab index of the image origin (iteration block 0) *)
  pattern : Chunk_pattern.t;
  rest : int;  (** product of the non-partition bbox extents (memoized) *)
  slab_elems : int;  (** [slab_height * rest] (memoized) *)
  rest_strides : int array;
      (** row-major strides of the non-partition dimensions, partition
          dimension zeroed: the linearization used inside one slab row *)
}

type t =
  | Row_major of Data_space.t
  | Col_major of Data_space.t
  | Permuted of Data_space.t * int array
      (** dimension order, outermost first; [Permuted (s, [|0;1;...|])] is
          row-major *)
  | Internode of internode

val permuted : Data_space.t -> int array -> t
(** @raise Invalid_argument if the order is not a permutation of the
    dimensions. *)

val internode :
  space:Data_space.t ->
  d:Imat.t ->
  v:int ->
  num_blocks:int ->
  v_origin:int ->
  slab_height:int ->
  pattern:Chunk_pattern.t ->
  t
(** Computes the bounding box of the [D]-transformed space and anchors the
    slab grid at [v_origin] (the image of the first parallel iteration,
    in untransformed-shift coordinates — {!Array_partition.result.origin})
    so that data slab [k] holds iteration block [k]'s elements and slabs
    are assigned to pattern threads round-robin, mirroring the
    iteration-block distribution.
    @raise Invalid_argument if [D] is not unimodular of the array's rank,
    [v] is out of range, [num_blocks < 1] or [slab_height < 1]. *)

val space : t -> Data_space.t

val offset_of : t -> Ivec.t -> int
(** File offset (in elements) of an array element.  Total for distinct
    elements: injective. *)

val size : t -> int
(** File size in elements: one more than the largest offset any element of
    the space can map to (>= cardinal for layouts with holes). *)

val owner_of : t -> Ivec.t -> int option
(** For [Internode]: the thread whose region the element falls in.  [None]
    for canonical layouts. *)

(** {1 Strength-reduction hooks}

    The block walk ({!Block_walk}) evaluates offsets incrementally over
    consecutive loop iterations instead of through {!offset_of}'s
    per-element transform + division chain.  These expose exactly the
    decomposition it needs; they share {!offset_of}'s implementation, and
    the golden equality tests pin the walk to it. *)

val linear_strides : t -> int array option
(** For the canonical layouts: strides such that
    [offset_of t a = sum_k strides.(k) * a.(k)] for every in-range [a]
    (all three are linear in the element coordinates).  [None] for
    [Internode], which is only piecewise linear. *)

val slab_index : internode -> int -> int
(** The data slab holding {e transformed, shifted} partition coordinate
    [vv] (for [0 <= vv < ext.(v)]). *)

val slab_start : internode -> int -> int
(** The first partition coordinate of slab [j]: slab [j] spans
    [[slab_start i j, slab_start i (j + 1))]. *)

val slab_coords : internode -> vv:int -> lin_rest:int -> int * int
(** [(owner, rank)] of the element whose transformed, shifted coordinates
    have partition component [vv] and non-partition linearization
    [lin_rest] (per [rest_strides]).  Both inputs are affine in the
    original element coordinates, hence in the iteration vector; inside one
    slab the owner is fixed and the rank is affine in both.  The file
    offset is [Chunk_pattern.offset i.pattern ~thread:owner ~rank]. *)

val slab_height : internode -> int

val describe : t -> string
val pp : Format.formatter -> t -> unit
