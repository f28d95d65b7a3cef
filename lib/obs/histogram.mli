(** Log-bucketed latency/value histogram.

    Buckets grow geometrically: bucket [0] covers [(-inf, lo]], bucket [i]
    ([1 <= i < buckets-1]) covers [(lo * gamma^(i-1), lo * gamma^i]], and the
    last bucket absorbs everything above.  Geometric buckets give a bounded
    relative error on percentile estimates over many decades of latency
    (microsecond cache hits to second-scale disk storms) with a few dozen
    counters, and two histograms of the same shape merge by adding buckets. *)

type t

val create : ?lo:float -> ?gamma:float -> ?buckets:int -> unit -> t
(** Defaults: [lo = 1.0], [gamma = 1.6], [buckets = 48] — covers roughly
    [1 us, 3e9 us] before the overflow bucket.  A degenerate single-bucket
    histogram is allowed: everything lands in the overflow bucket and
    {!percentile} degrades to the observed extremes.
    @raise Invalid_argument if [lo <= 0], [gamma <= 1] or [buckets < 1]. *)

val add : t -> float -> unit
(** Record one observation.  @raise Invalid_argument on NaN. *)

val add_many : t -> float -> int -> unit
(** [add_many t v n] records [n] observations of value [v] in O(1) —
    equivalent to calling [add t v] [n] times.  Lets batched simulators
    replay millions of identical modeled requests per latency class
    without a per-request loop.  A count of 0 is a no-op.
    @raise Invalid_argument on NaN or a negative count. *)

val count : t -> int
val sum : t -> float
val mean : t -> float
(** 0 when empty. *)

val min_value : t -> float
(** Smallest recorded observation; 0 when empty. *)

val max_value : t -> float
(** Largest recorded observation; 0 when empty. *)

val is_empty : t -> bool

val bucket_count : t -> int
val bounds : t -> float array
(** Upper bound of each bucket; the last is [infinity]. Strictly increasing. *)

val counts : t -> int array
(** Per-bucket observation counts (a copy). *)

val value_index : t -> float -> int
(** Bucket a value would land in — the same monotone index {!add} uses, so
    callers can key per-bucket side tables (latency classes, exemplars)
    consistently with the counts. *)

type exemplar = { value : float; trace_id : int64 }
(** A concrete sampled observation linked to a request trace: the bridge
    from an aggregate percentile back to one request's span tree. *)

val add_exemplar : ?cap:int -> t -> value:float -> trace_id:int64 -> unit
(** Attach an exemplar to the bucket [value] falls in, without touching the
    counts.  Each bucket keeps at most [cap] exemplars (default 2) under a
    deterministic keep-max rule: largest values first, ties broken towards
    the smaller trace id — so the head of a bucket's list is always the
    bucket's maximum attached value.  The per-bucket store is allocated on
    first use; histograms that never trace carry no exemplar state at all.
    @raise Invalid_argument on NaN or [cap < 1]. *)

val exemplars_of_bucket : t -> int -> exemplar list
(** The bucket's exemplars, keep-max order.  [[]] when none were attached.
    @raise Invalid_argument when the bucket index is out of range. *)

val exemplars_at : t -> p:float -> exemplar list
(** Exemplars for the bucket holding the [p]-quantile (the bucket
    {!percentile} reads).  When that bucket carries none, falls back to the
    nearest populated bucket above it, then below — deterministic, and
    non-empty whenever the histogram holds any exemplar at all.  [[]] on an
    empty histogram.  @raise Invalid_argument if [p] is outside [0, 1]. *)

val has_exemplars : t -> bool

val percentile_bucket : t -> float -> int
(** Index of the bucket {!percentile} answers from; [0] when empty.
    @raise Invalid_argument if [p] is outside [0, 1]. *)

val percentile : t -> float -> float
(** [percentile t p] for [p] in [0, 1]: an upper-bound estimate of the
    p-quantile — the upper edge of the bucket holding the rank-[ceil(p*n)]
    observation, clamped to the observed min/max.  Never raises on shape
    degeneracies: an {e empty} histogram answers [0.] for every [p], and a
    {e single-bucket} histogram answers the observed maximum (its only
    bucket's edge is [+inf], so the min/max clamp is all the information
    left).  @raise Invalid_argument only if [p] is outside [0, 1]. *)

val merge : t -> t -> t
(** Fresh histogram with summed buckets.
    @raise Invalid_argument if the two shapes (lo, gamma, buckets) differ. *)

val merge_list : t list -> t
(** Fold of {!merge}; an empty default-shaped histogram for [[]]. *)

val same_shape : t -> t -> bool
val reset : t -> unit
val pp : Format.formatter -> t -> unit
