(** The run-length block walk: one loop nest's per-thread block requests
    under chosen file layouts, as [(file, index)] int pairs.

    A thread's element accesses are translated through the layouts into
    block indices, and {e consecutive requests to the same block of a file
    collapse into one} (the I/O runtime buffers one block per open file).

    Every reference's file offset is affine in the iteration vector: one
    functional under a canonical layout ({!File_layout.linear_strides}),
    piecewise under the inter-node layout, where it is linear inside one
    data slab and one Step II chunk.  The walk enumerates each thread's
    iterations as rows of the innermost loop.  Inside a row each offset
    moves by a constant step, tracked as a block index and a position in
    the block, so the hot loop performs no allocation, transform or
    division; an inter-node reference recomputes its chunk
    ({!Chunk_pattern.offset}) only when it leaves its cached slab or chunk.

    {b Quiet runs.}  An iteration is quiet when it issues no request: every
    reference's block is the block last read from its file.  After a quiet
    iteration, each reference's block is its file's last block, so the
    following iterations stay quiet for exactly as long as every reference
    stays inside its block and its linear stretch (slab and chunk), and they
    change nothing but the offsets.  The walk therefore skips them in closed
    form: one division per reference finds the first inner step where some
    reference leaves, and the offsets move by [n * step].  The skip is exact
    — the stream is the one the per-iteration walk would issue.  In a nest
    where some reference's step is at least [block_elems], every iteration
    moves that reference to a new block, so no run is skipped and the walk
    does not test.

    This is the one enumeration behind both the run's request streams
    ([Flo_engine.Tracegen.nest_streams], which packs them into block ids)
    and the model's distinct-block counts ([Flo_fidelity.Predict.compute]):
    a thread's collapsed stream holds exactly the set of blocks the thread
    touches.  [Flo_engine.Tracegen.reference_streams] is its executable
    specification; the golden equality tests and a qcheck law on random
    nests pin the two together. *)

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
(** One nest prepared for walking: its plan and each reference's affine
    description.  Walk it from one domain at a time. *)

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
(** [walk w ~thread] is [thread]'s stream, in a fresh growable buffer
    sized like the stream [w] last returned.  Hand-off rule: consume each
    thread's stream (pack it, count it) before walking the next thread, so
    that only one thread's buffer is alive at a time; docs/PERFORMANCE.md
    has the peak-RSS measurements behind it. *)
