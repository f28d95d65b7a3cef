(** Inter-thread sharing and eviction-conflict matrices for one shared
    cache — the observable counterpart of the paper's Step II objective
    (minimize the blocks thread pairs co-touch inside a shared cache).

    Feed the cache's lookup stream through {!touch} and its evictions
    through {!evict}, in trace order.  One probe of a packed-key table
    finds an event's block with its toucher bitset, degree and pending
    evictor; {!cross_shared} and {!shared_blocks} are running counters,
    and the matrices are built when asked for.  Memory is
    O(distinct blocks × ⌈distinct threads / 63⌉) words: a toucher bitset,
    a degree and a pending evictor per block, plus a small conflict table. *)

type t

val create : unit -> t

val touch : t -> thread:int -> file:int -> block:int -> hit:bool -> unit
(** One lookup ([hit = true] for a cache hit, [false] for a miss) of
    [(file, block)] at this cache on behalf of [thread].
    @raise Invalid_argument when [thread] is outside [[0, 65535]] or
    [(file, block)] outside [Flo_storage.Block]'s packing range. *)

val evict : t -> thread:int -> file:int -> block:int -> unit
(** The cache evicted [(file, block)] while serving a request of
    [thread].  A block seen only through evictions counts as touched by
    nobody.  @raise Invalid_argument as {!touch}. *)

val threads : t -> int
(** [1 + ] the largest thread id seen. *)

val touches : t -> int
val evictions : t -> int
val distinct_blocks : t -> int

val shared_among : t -> int list -> int array array
(** [shared_among t ids]: cell [(a, b)] counts the distinct blocks both
    thread [ids.(a)] and thread [ids.(b)] touched here; the diagonal is a
    thread's distinct-block count (Eq. 4 on this cache's stream).  [ids]
    must be distinct; the matrix is sized by the list, not by the ids. *)

val conflicts_among : t -> int list -> int array array
(** Cell [(a, b)] counts evictions by thread [ids.(a)] whose victim's
    {e next} lookup here was a miss by thread [ids.(b)]: the evictor threw
    out a block the other still needed.  Each eviction charges at most one
    conflict, never to the evictor; a victim first re-installed (prefetch,
    demote) or re-missed by the evictor charges none. *)

val distinct_of : t -> thread:int -> int
(** Distinct blocks [thread] touched here (its diagonal cell). *)

val cross_shared : t -> int
(** Sum over unordered thread pairs of their shared-block cells — the
    scalar the optimized layout should shrink. *)

val shared_blocks : t -> int
(** Distinct blocks touched by two or more threads. *)

val total_conflicts : t -> int

val active_threads : t -> int list
(** Thread ids that touched a block here or took part in a conflict,
    ascending — the interesting rows/columns of the matrices. *)
