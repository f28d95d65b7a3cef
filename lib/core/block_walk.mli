(** The strength-reduced block walk: one loop nest's per-thread block
    requests under chosen file layouts, as [(file, index)] int pairs.

    A thread's element accesses are translated through the layouts into
    block indices, and {e consecutive requests to the same block of a file
    collapse into one} (the I/O runtime buffers one block per open file).
    Per-reference offsets are tracked as incremental affine cursors over the
    lexicographic walk (via {!File_layout.linear_strides} /
    {!File_layout.offset_of_transformed}), so the hot loop performs no
    per-element allocation, transform or division.

    This is the one enumeration behind both the run's request streams
    ([Flo_engine.Tracegen.nest_streams], which packs them into block ids)
    and the model's distinct-block counts ([Flo_fidelity.Predict.compute]):
    a thread's collapsed stream holds exactly the set of blocks the thread
    touches.  [Flo_engine.Tracegen.reference_streams] is its executable
    specification, and the golden equality tests pin the two together. *)

open Flo_poly

val plan_of :
  threads:int ->
  blocks_per_thread:int ->
  ?assign:Compmap.strategy ->
  ?cluster:int ->
  Loop_nest.t ->
  Parallelize.t
(** The runtime's iteration-block distribution: [min (threads *
    blocks_per_thread) extent] blocks of the parallel loop, round-robin
    over the threads, or by the computation-mapping baseline's [assign]
    map ([cluster] = threads per layer-1 cache, required with [assign]).
    @raise Invalid_argument when [assign] comes without [cluster]. *)

type t
(** One nest prepared for walking: its plan and per-reference cursors'
    affine descriptions. *)

val create :
  layouts:(int -> File_layout.t) ->
  block_elems:int ->
  threads:int ->
  blocks_per_thread:int ->
  ?assign:Compmap.strategy ->
  ?cluster:int ->
  ?sample:int ->
  Loop_nest.t ->
  t
(** [sample > 1] keeps the first [1/sample] of each thread's iterations
    (a prefix preserves contiguity) — profile mode.
    @raise Invalid_argument on non-positive [sample] or [block_elems]. *)

type stream = private {
  mutable files : int array;
  mutable indices : int array;
  mutable len : int;
}
(** One thread's collapsed stream for one nest: request [i < len] is block
    [indices.(i)] of file [files.(i)], in execution order. *)

val walk : t -> thread:int -> stream
(** [walk w ~thread] is [thread]'s stream, in a fresh growable buffer.
    Hand-off rule: consume each thread's stream (pack it, count it) before
    walking the next thread, so that only one thread's buffer is alive at a
    time; docs/PERFORMANCE.md has the peak-RSS measurements behind it. *)
