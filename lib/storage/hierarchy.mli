(** Trace-driven simulator for the multi-layer storage-cache hierarchy.

    A block access from a thread walks: its I/O node's cache (layer 1), then
    — by striping — one storage node's cache (layer 2), then that node's
    disk.  The per-thread clocks accumulate modeled service time; the miss
    counters per cache feed the paper's Tables 2-3.

    Two inter-level protocols are provided:
    {ul
    {- [Inclusive]: the paper's default.  Blocks fetched from below are
       installed at every level (inclusive LRU).}
    {- [Demote_exclusive]: Wong & Wilkes' DEMOTE-LRU.  A layer-2 read hit
       hands the block to layer 1 and moves it to the cold (LRU) end of
       layer 2, where disk fills enter too; blocks evicted from layer 1 are
       demoted to the MRU end of their storage node's cache.}}

    KARMA needs no protocol of its own: its partitioned caches (see
    {!Karma}) refuse blocks assigned to the other level, so running them
    under [Inclusive] yields exclusive hint-based caching.

    {2 Observability}

    [create ?sink ?metrics] attaches the observability layer.  Every cache
    and disk action emits a structured {!Flo_obs.Event.t} to the sink
    (timestamped with the requesting thread's simulated clock at arrival),
    and the registry gains a ["request_latency_us"] histogram of per-request
    modeled cost plus one ["disk_service_us"] histogram per storage node
    (label [node=i]).  Both default to off and add no work to the hot path
    when absent; simulation results are identical either way. *)

type protocol = Inclusive | Demote_exclusive

type costs = {
  l1_hit_us : float;  (** compute -> I/O node round trip on an L1 hit *)
  l2_hit_us : float;  (** additional hop to a storage node *)
  demote_us : float;  (** network cost of one DEMOTE transfer *)
}

val default_costs : costs

type t

val create :
  ?protocol:protocol ->
  ?mapping:int array ->
  ?l1:Policy.t array ->
  ?l2:Policy.t array ->
  ?costs:costs ->
  ?disk_params:Disk.params ->
  ?readahead:int ->
  ?sink:Flo_obs.Sink.t ->
  ?metrics:Flo_obs.Metrics.t ->
  ?faults:Flo_faults.Injector.t ->
  Topology.t ->
  t
(** [mapping] permutes threads onto compute nodes (Fig. 7(b)); default is
    the identity.  [l1] holds one cache per I/O node and [l2] one per
    storage node; each defaults to {!Lru.create} caches of the topology's
    capacity.  [readahead > 0] enables sequential prefetch
    at the storage nodes: a disk read also pulls the next [readahead]
    same-node stripe units of the file into the storage cache (cold), with
    a small overlapped transfer charge — the mechanism behind the paper's
    remark that linear layouts improve hardware I/O prefetching.
    [sink]/[metrics] attach tracing and latency profiling (see above).

    [faults] attaches a fault injector (see [docs/ROBUSTNESS.md]): requests
    are routed through its stripe-failover remap, offline storage caches
    become all-miss passthroughs (no lookups, inserts, readahead or
    demotions), and disk reads go through the retry/backoff/timeout/failover
    engine, whose wasted service time, backoffs and failover reads are all
    charged to the requesting thread's modeled clock.  The injector belongs
    to one run: {!reset} does not reset it.  Without [faults] — or with an
    injector compiled from an inert plan — results are byte-identical to
    the fault-free path.
    @raise Invalid_argument if array lengths or the mapping mismatch the
    topology. *)

val topology : t -> Topology.t
val access : t -> thread:int -> Block.t -> unit
(** Simulate one block read by [thread]. *)

val thread_clock_us : t -> int -> float
val elapsed_us : t -> float
(** Max over threads — the modeled parallel execution time. *)

val thread_clocks_us : t -> float array
(** Copy of every thread's clock — the per-thread breakdown. *)

val add_cpu_us : t -> thread:int -> float -> unit
(** Charge pure-compute time to a thread's clock. *)

val l1_stats : t -> Stats.t
(** Aggregated over all I/O node caches. *)

val l2_stats : t -> Stats.t
val l1_stats_of : t -> int -> Stats.t
val l2_stats_of : t -> int -> Stats.t
val io_nodes : t -> int
val storage_nodes : t -> int
val disk_reads : t -> int

val prefetches : t -> int
(** Total readahead insertions (sum of per-node {!Stats.t.prefetches}). *)

val prefetch_hits : t -> int
(** Prefetched blocks later claimed by a demand access. *)

val io_node_of_thread : t -> int -> int
val reset : t -> unit
(** Clear caches, stats, clocks and disk state (topology retained). *)
