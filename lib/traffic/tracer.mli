(** Deterministic request sampling for the traffic engine.

    The engine replays a tenant's jobs as O(latency classes) batched
    histogram updates; the tracer walks the {e same} apportioned counts in
    the {e same} order and decides, per request sequence number, which
    requests materialize a {!Flo_obs.Trace.t} span tree:

    - {b head sampling} — every [sample_rate]-th request of a tenant (by its
      replay sequence number), one trace per sampled request;
    - {b tail sampling} — every (window, rank, class) group whose requests
      hit the fault path, cross [breach_us], or form the max-latency group
      of their (tenant, window) is kept as one {e group} trace whose [count]
      is the whole group — so every fault/timeout request in a run is
      covered by some sampled trace, by construction.

    Trace ids are minted from the tenant's splitmix64 tracing substream at
    counter [2*seq] (head) or [2*seq + 1] (group at its first sequence
    number), so ids never collide and are a pure function of (seed, tenant,
    replay position): output is byte-identical at every [--jobs].  Every
    emitted trace also lands as a histogram exemplar (at most 2 per
    bucket), which is how [slo_report]'s p99 lines link to concrete
    traces. *)

type params = {
  sample_rate : int;  (** head sampling: 1 trace per N requests per tenant *)
  breach_us : float;  (** tail sampling: keep classes slower than this *)
}

val default : params
(** [sample_rate 65536], [breach_us 1e6] (only the extreme tail). *)

val validate : params -> (unit, string) result

type cells =
  served:(int -> int -> Kernel.t -> int -> float -> unit) ->
  shed:(int -> int -> Kernel.t -> int -> unit) ->
  unit
(** One tenant's served cells, as {!Engine.cells} walks them: [served w r k
    jobs multiplier] for every admitted slice of (window [w], rank [r]),
    served by kernel [k] under congestion [multiplier], and [shed w r k jobs]
    after a cell's slices wherever the admission controller shed jobs ([k]
    is the normal kernel).  Cells come in replay order, (window, rank)
    ascending. *)

val trace_tenant :
  t:params ->
  seed:int ->
  stream:int ->
  tenant:int ->
  shard:int ->
  win_len_us:float ->
  windows:int ->
  hist:Flo_obs.Histogram.t ->
  cells ->
  Flo_obs.Trace.t list
(** Sample one tenant's replay.  [cells] must be the walk {!Engine}'s replay
    consumed and [hist] the tenant's latency histogram: each emitted
    trace's latency is the same float expression the replay recorded, so
    the exemplar attached here lands in the bucket that counted the
    request.  Served traces come back in replay order (window, rank, class
    ascending), then one group trace per shed cell — outcome ["shed"],
    reason {!Flo_obs.Trace.Shed}, a zero-duration [admission.shed] root span
    at the window origin, [count] = the rejected requests.  Sequence
    numbers cover the offered request space (a cell's served requests
    first, then its shed ones), so trace ids never collide.  Pure
    observation: [hist] gains exemplars, never observations; shed traces
    attach none. *)
