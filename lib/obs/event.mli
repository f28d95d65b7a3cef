(** Structured trace events emitted by the storage simulator.

    One event per observable cache/disk action, timestamped with the
    {e simulated} clock of the requesting thread (microseconds), so a trace
    replays the modeled timeline, not wall time.  Events carry plain block
    coordinates ([file], [block]) rather than a [Block.t] to keep this
    library free of storage-layer dependencies. *)

type kind =
  | Access  (** a block request arriving at the hierarchy *)
  | Hit  (** served by the cache of [layer]/[node] *)
  | Miss  (** not resident at [layer]/[node] *)
  | Evict  (** a victim left the cache of [layer]/[node] *)
  | Demote  (** DEMOTE transfer of an L1 victim into a storage cache *)
  | Prefetch  (** sequential readahead pulled [block] into a storage cache *)
  | Disk_read  (** disk service; [latency_us] is the modeled service time *)
  | Fault
      (** an injected transient read failure; [latency_us] is the wasted
          service time of the failed attempt *)
  | Retry  (** a backoff wait before re-reading; [latency_us] is the wait *)
  | Timeout  (** the request's retry budget ran out *)
  | Failover
      (** read served by the failover replica node; [latency_us] is that
          read's service time ([node] is the replica) *)
  | Other of string
      (** an event kind this build does not know — round-tripped opaquely so
          traces written by newer emitters still load ({!of_json} never
          rejects a record for its kind alone).  The payload is the wire
          name; {!kind_to_string} echoes it back verbatim. *)

type layer = L1 | L2 | Disk

type t = {
  time_us : float;  (** requesting thread's simulated clock at emission *)
  kind : kind;
  layer : layer;
  node : int;  (** I/O-node id for [L1], storage-node id for [L2]/[Disk] *)
  thread : int;
  file : int;
  block : int;
  latency_us : float;  (** 0 unless meaningful for [kind] *)
}

val make :
  time_us:float ->
  kind:kind ->
  layer:layer ->
  node:int ->
  thread:int ->
  file:int ->
  block:int ->
  ?latency_us:float ->
  unit ->
  t

val kind_to_string : kind -> string
val layer_to_string : layer -> string
val kind_of_string : string -> kind option
(** The known kinds only — [None] for a name this build does not recognize;
    {!of_json} wraps such misses in {!Other} instead of failing. *)

val layer_of_string : string -> layer option

val to_json : t -> string
(** One-line JSON object (no trailing newline) — the JSONL record format
    documented in [docs/OBSERVABILITY.md].  The kind name goes through
    {!Json.escape}, so any {!Other} name round-trips. *)

val of_json : string -> (t, string) result
(** Inverse of {!to_json}: decode one JSONL trace line with {!Json.parse}.
    Tolerates any field order, surrounding whitespace and unknown fields;
    [lat_us] defaults to [0.] when absent; an unrecognized kind name becomes
    {!Other} rather than an error; integer fields must be integral.
    Timestamps round-trip at the serializer's millisecond-of-a-microsecond
    precision ([%.3f]).  Returns [Error msg] on malformed input — offline
    trace analysis ({!Flo_analysis.Analyzer.load_file}) surfaces these with
    line numbers. *)

val pp : Format.formatter -> t -> unit
