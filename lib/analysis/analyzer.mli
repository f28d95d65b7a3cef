(** Trace analytics: consume a {!Flo_obs.Event.t} stream — live through a
    sink, or offline from a [--trace] JSONL file — and accumulate

    - per-(layer, node) block reuse-distance histograms ({!Reuse}),
    - per-shared-cache inter-thread sharing/conflict matrices ({!Sharing}),
    - per-thread distinct-block counts per file ({!Locality}),

    i.e. the observable counterparts of the paper's Step I (Eq. 4) and
    Step II objectives.  Rendering lives in [Flo_engine.Report]; Perfetto
    export in {!Perfetto}.

    The views key blocks by packed [(file, block)] ints and keep each
    block's toucher set as a thread bitset, so a cache's views cost
    O(distinct blocks × ⌈distinct threads / 63⌉) words, plus the log of
    its lookups not yet read.  Caches sit in per-layer arrays indexed by
    node.  Reuse distances are computed when read: {!reuse_of} and
    {!reuse_histogram_at} replay the lookups logged since the last read
    into the cache's {!Reuse.t}, each exactly once, so callers that never
    read them (fidelity, drift) never pay for them. *)

type cache = { layer : Flo_obs.Event.layer; node : int }

val cache_name : cache -> string
(** ["l1/0"], ["l2/3"], ... *)

type t

val create : ?keep_events:bool -> unit -> t
(** [keep_events] retains the raw events (for {!Perfetto} export); off by
    default so live analysis stays O(state), not O(trace). *)

val feed : t -> Flo_obs.Event.t -> unit
(** @raise Invalid_argument when an access, lookup or eviction names a
    thread or node outside [[0, 65535]], or a block outside
    [Flo_storage.Block]'s packing range ([file < 2^26], [block < 2^36]);
    {!load_channel} reports such lines as [Malformed] instead. *)

val sink : t -> Flo_obs.Sink.t
(** Live accumulation: attach to [Run.run ~sink] (tee with other sinks as
    needed). *)

val of_events : ?keep_events:bool -> Flo_obs.Event.t list -> t

type load_error =
  | Io of string  (** the file could not be opened or read (a directory) *)
  | Malformed of { line : int; msg : string }
      (** first malformed trace line (1-based) and the parse error *)

val load_error_to_string : load_error -> string

val load_file : ?keep_events:bool -> string -> (t, load_error) result
(** Offline mode: parse a JSONL trace with {!Flo_obs.Event.of_json}.  Blank
    lines are skipped; the first malformed line aborts with
    [Malformed] carrying its line number.  A line is malformed when it does
    not decode, or when its thread or node is outside [[0, 65535]], its
    file outside [[0, 2^26)] or its block outside [[0, 2^36)], whatever its
    kind. *)

val load_channel : ?keep_events:bool -> in_channel -> (t, load_error) result

val events : t -> Flo_obs.Event.t list
(** Retained events in trace order; [[]] unless [keep_events] was set. *)

val event_count : t -> int
val kind_count : t -> Flo_obs.Event.kind -> int

val time_span : t -> float * float
(** Smallest and largest timestamp seen; [(0., 0.)] when empty. *)

val total_disk_us : t -> float
(** Summed [latency_us] of the disk reads. *)

val caches : t -> cache list
(** Caches with any lookup or eviction activity: L1 nodes first, then L2,
    nodes ascending. *)

val reuse_of : t -> cache -> Reuse.t option
(** [None] for a cache with no lookups.  Catches the view up with every
    lookup fed so far; the same [Reuse.t] is returned on every call. *)

val sharing_of : t -> cache -> Sharing.t option
val locality : t -> Locality.t

(** {1 Whole-layer scalars} — the headline numbers compared across runs. *)

val cross_shared_at : t -> Flo_obs.Event.layer -> int
(** Sum of {!Sharing.cross_shared} over the layer's caches. *)

val conflicts_at : t -> Flo_obs.Event.layer -> int
(** Sum of {!Sharing.total_conflicts} over the layer's caches. *)

val reuse_histogram_at : t -> Flo_obs.Event.layer -> Flo_obs.Histogram.t
(** Bucket-wise merge of the layer's reuse-distance histograms. *)
