(** Per-thread block-request stream generation.

    A thread's element accesses are translated through the chosen file
    layouts into block requests; {e consecutive requests to the same block
    collapse into one} — exactly the MPI-IO behaviour the paper relies on:
    a thread reading elements stored contiguously issues one block-sized
    request, a thread whose elements are scattered issues one request per
    element.  This is where a layout's "block footprint" becomes request
    traffic.

    The enumeration itself is {!Flo_core.Block_walk}, which
    [Flo_fidelity.Predict] counts too; this module packs its streams into
    block ids and keeps the naive {!reference_streams} as the oracle both
    are tested against.  The walk skips {e quiet runs} in closed form: after
    an iteration that issues no request, every reference sits in the block
    its file last read, and the iterations that keep every reference inside
    that block (and inside its inter-node slab and chunk) issue nothing
    either, so jumping over them leaves the stream unchanged. *)

open Flo_poly
open Flo_storage
open Flo_core

val nest_streams :
  layouts:(int -> File_layout.t) ->
  block_elems:int ->
  threads:int ->
  blocks_per_thread:int ->
  ?assign:Compmap.strategy ->
  ?cluster:int ->
  ?sample:int ->
  Loop_nest.t ->
  Block.t array array
(** [nest_streams ... nest] is one collapsed block-request stream per
    thread for a single execution of [nest] (weights are replayed by the
    runner).  [assign] substitutes the computation-mapping baseline's
    block-to-thread map ([cluster] = threads per layer-1 cache, required
    with [assign]).  [sample > 1] keeps the first [1/sample] of each
    thread's iterations (a prefix preserves contiguity) — profile mode.  The per-nest block count is capped by the nest's
    parallel extent.

    This is the run-length {!Flo_core.Block_walk}, each thread's stream
    packed into block ids as soon as that thread is walked.
    Element-for-element identical to {!reference_streams}.
    @raise Invalid_argument on non-positive [sample] or [block_elems], or a
    block id out of {!Block.make}'s range. *)

val reference_streams :
  layouts:(int -> File_layout.t) ->
  block_elems:int ->
  threads:int ->
  blocks_per_thread:int ->
  ?assign:Compmap.strategy ->
  ?cluster:int ->
  ?sample:int ->
  Loop_nest.t ->
  Block.t array array
(** The original naive generator — evaluates {!Access.eval} and
    {!File_layout.offset_of} per element — retained as the executable
    specification of the stream semantics.  The golden equality tests
    assert [nest_streams = reference_streams] across the whole workload
    suite, and pin [Predict]'s counts to the block sets of these streams;
    use this (or [--jobs 1]) when auditing the fast path. *)

val iterations_per_thread :
  threads:int -> blocks_per_thread:int -> ?sample:int -> Loop_nest.t -> int array
(** Element-iteration counts matching [nest_streams]'s enumeration (used to
    charge CPU time). *)
