(** Chrome trace-event JSON export ([ui.perfetto.dev],
    [chrome://tracing]).

    Renders a simulator trace as two process groups: per-thread request
    timelines (one complete slice per block request, colored by outcome —
    L1 hit, L2 hit, or disk read — and spanning until the thread's next
    request), and per-cache tracks carrying evictions, demotions,
    prefetches and disk reads as instant events.  Timestamps are the
    trace's simulated microseconds. *)

val json_of_events : Flo_obs.Event.t list -> string
(** The whole trace as one JSON document ([{"traceEvents": [...], ...}]).
    Events must be in trace (emission) order, as read from a JSONL file or
    a ring sink.  Request slices carry stable [trace_id]/[span_id] args —
    a pure function of the (thread, request-sequence) position via
    {!Flo_faults.Prng.at}, so repeated exports of the same trace are
    byte-identical and cross-reference with [flopt trace] output. *)

val write : out_channel -> Flo_obs.Event.t list -> unit

val json_of_traces : Flo_obs.Trace.t list -> string
(** Sampled-trace span trees as one document: one track per trace, one
    nested slice per span, every slice carrying the [trace_id]/[span_id]
    pair [flopt trace] renders ({!Flo_obs.Trace.span_id} preorder). *)

val write_traces : out_channel -> Flo_obs.Trace.t list -> unit
