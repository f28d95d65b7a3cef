(** A fault plan compiled against a concrete storage-node count.

    One injector belongs to one simulated run: create it fresh per run
    ([Hierarchy.reset] does {e not} reset it).  All stochastic draws come
    from per-node {!Prng} substreams keyed by node id, so a node's fault
    sequence depends only on its own request order — which is deterministic
    within a run — and results are identical at every [--jobs] setting.

    The query functions are pure unless documented otherwise; the [record_*]
    functions bump the counters that {!counts} reads. *)

type t

type counts = {
  faults : int;  (** failed disk read attempts *)
  retries : int;  (** backoff-then-retry transitions *)
  timeouts : int;  (** requests whose retry budget ran out *)
  failovers : int;  (** failover reads after retries were exhausted *)
  remaps : int;  (** routing decisions redirected by [failover:] clauses *)
  offline_misses : int;  (** L2 lookups skipped because the cache is offline *)
  spikes : int;  (** latency-spike multipliers drawn *)
}

val create : storage_nodes:int -> Fault_plan.t -> t
(** Compile [plan] for a hierarchy with [storage_nodes] nodes.  Multiple
    clauses targeting one node compose: read-error rates combine as
    independent failure sources, [degrade] multipliers multiply, the last
    [latency] clause per node wins, and [failover] routes are single-hop.
    @raise Invalid_argument if [storage_nodes <= 0], a clause names a node
    outside [0, storage_nodes), or the retry policy is invalid. *)

val plan : t -> Fault_plan.t
val retry_policy : t -> Retry.policy

val route : t -> int -> int
(** Effective storage node for a request homed at the given node (identity
    unless a [failover:] clause remaps it).  Counts a remap when redirected. *)

val cache_online : t -> node:int -> bool
(** Pure: false iff a [cache-off:] clause disabled the node's cache. *)

val draw_read_error : t -> node:int -> bool
(** True iff this read attempt fails; draws from the node's stream only
    when the node's failure rate is positive. *)

val service_multiplier : t -> node:int -> float
(** Degraded-node multiplier, times a latency-spike multiplier when one is
    drawn.  Exactly [1.0] for an unafflicted node (so [svc *. m = svc],
    preserving the byte-identity invariant). *)

val backoff_us : t -> node:int -> attempt:int -> float
(** Jittered exponential backoff before retry [attempt] (0-based); the
    jitter draw comes from the node's stream. *)

val failover_node : t -> node:int -> int
(** The replica target for the failover read path: the next node modulo the
    node count (the node itself in a single-node system). *)

val record_fault : t -> unit
val record_retry : t -> unit
val record_timeout : t -> unit
val record_failover : t -> unit
val record_offline_miss : t -> unit

val counts : t -> counts
(** Snapshot of the counters. *)
