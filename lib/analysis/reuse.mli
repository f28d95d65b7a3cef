(** Block reuse distances (LRU stack distances) for one cache's lookup
    stream.

    The reuse distance of a touch is the number of {e distinct} blocks
    touched since the previous touch of the same block — the quantity that
    fully determines LRU behaviour: under an LRU cache of capacity [C]
    blocks, a touch hits iff its reuse distance is [< C].  Distances
    accumulate into a powers-of-two {!Flo_obs.Histogram} so they read
    directly against cache capacities.

    Incremental: feed touches in stream order; each costs [O(log n)] via a
    Fenwick tree over touch slots.  Memory is O(distinct blocks) for the
    last-touch column, keyed by packed [(file, block)] ints, plus O(touches)
    for the tree.  {!Analyzer} feeds a cache's view only when a reader asks
    for it. *)

type t

val create : unit -> t

val touch : t -> file:int -> block:int -> int option
(** Record the next touch of the stream.  [None] for a cold (first-ever)
    touch — its distance is infinite; [Some d] with the reuse distance
    otherwise ([0] = immediate re-touch).
    @raise Invalid_argument when [(file, block)] is outside
    [Flo_storage.Block]'s packing range. *)

val touches : t -> int
(** Total touches recorded. *)

val cold_touches : t -> int
(** First-ever touches (infinite distance; excluded from the histogram). *)

val reuses : t -> int
(** Touches with a finite distance, [= touches - cold_touches]. *)

val distinct_blocks : t -> int

val histogram : t -> Flo_obs.Histogram.t
(** Finite distances, bucketed by powers of two ([lo = 1], [gamma = 2]). *)

val below : t -> int -> int
(** [below t c]: finite-distance reuses falling in histogram buckets whose
    upper edge is [<= c] — an estimate (conservative, since the bucket
    containing [c] is excluded) of the touches an LRU cache of roughly [c]
    blocks would serve as hits. *)
