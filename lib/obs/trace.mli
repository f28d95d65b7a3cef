(** Sampled request traces: span trees on the {e modeled} clock.

    The traffic engine distills millions of modeled requests into
    per-(app, layout) latency classes — no per-request signal survives.  A
    trace is the escape hatch: for a deterministically {e sampled} request,
    the replay materializes the full causal tree (arrival → shard queue →
    per-layer cache verdicts → disk service → retries), every span charged
    to simulated microseconds.  Unsampled requests never touch this module.

    Determinism: trace ids are [Flo_faults.Prng.at] draws, from the same
    splitmix64 counter sequences the fault subsystem uses, never from wall
    clocks, so a (seed, params) pair yields byte-identical trace files on
    every run at every [--jobs] setting. *)

type span = {
  name : string;  (** e.g. ["request"], ["queue.congestion"], ["disk.retry"] *)
  start_us : float;  (** simulated start, absolute within the run *)
  dur_us : float;
  children : span list;  (** in causal order; charged within the parent *)
}

(** Why the sampler kept this request. *)
type reason =
  | Head  (** 1-in-N per-tenant head sampling *)
  | Breach  (** modeled latency crossed the SLO breach threshold *)
  | Fault_path  (** the request saw a fault, retry, timeout or failover *)
  | Window_max  (** the max-latency request of its (tenant, window) *)
  | Shed  (** rejected by the overload admission controller, never served *)

type t = {
  trace_id : int64;
  tenant : int;
  app : string;
  window : int;
  shard : int;
  outcome : string;  (** ["ok"], ["fault"], ["timeout"] — free-form *)
  latency_us : float;  (** the root span's modeled latency *)
  count : int;
      (** modeled requests this sampled trace stands for (tail samples
          represent their whole latency-class group; head samples are 1) *)
  reasons : reason list;  (** sorted, deduplicated; never empty *)
  root : span;
}

val span :
  ?children:span list -> name:string -> start_us:float -> dur_us:float -> unit -> span

val make :
  trace_id:int64 ->
  tenant:int ->
  app:string ->
  window:int ->
  shard:int ->
  outcome:string ->
  latency_us:float ->
  count:int ->
  reasons:reason list ->
  root:span ->
  t
(** Normalizes [reasons] (sort + dedup).  @raise Invalid_argument on an
    empty reason list or [count < 1]. *)

val span_count : t -> int
(** Spans in the tree, root included. *)

(** {1 Deterministic ids} *)

val span_id : trace_id:int64 -> int -> int64
(** Stable id of the [k]-th span (preorder) of a trace — a pure function of
    [(trace_id, k)], so renderers and the Perfetto exporter agree without
    coordination.  @raise Invalid_argument if [k < 0]. *)

val id_to_string : int64 -> string
(** 16 lowercase hex digits, zero-padded — the wire and CLI form. *)

val id_of_string : string -> int64 option
(** Inverse of {!id_to_string}; also accepts uppercase hex. *)

(** {1 Wire format} *)

val reason_to_string : reason -> string
val reason_of_string : string -> reason option

val to_json : t -> string
(** One-line JSON object (no trailing newline); spans nest as [children]
    arrays.  Line order in a trace file is the engine's merge order (shard
    order), which is what makes files byte-comparable across [--jobs].
    Times print with exactly three decimals ({!Json.add_fixed3}). *)

val to_buffer : Buffer.t -> t -> unit
(** Append {!to_json}'s bytes to a buffer — what a file writer reuses one
    buffer across traces with. *)

val of_json : string -> (t, string) result
(** Inverse of {!to_json}, decoded with {!Json.parse}.  Tolerates any field
    order; unknown reason names are dropped (forward-compat) unless that
    leaves the list empty.  Nesting beyond {!Json.max_depth} containers —
    span trees deeper than 32 levels — is rejected rather than risking stack
    overflow on hostile input. *)

val pp : Format.formatter -> t -> unit
(** One-line summary (no tree). *)

val pp_tree : Format.formatter -> t -> unit
(** The summary line plus an ASCII span tree with per-span simulated start
    offsets and durations — what [flopt trace] renders. *)
