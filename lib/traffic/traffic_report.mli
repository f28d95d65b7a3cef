(** Rendering for traffic-engine results.

    Everything depends only on the result's modeled fields, so the report
    is byte-identical at every [--jobs] value; CI pins {!verdict_line}
    verbatim and diffs whole reports.  The machine-dependent [[wall]]
    line is the CLI's, not this module's.  All renderers accept degenerate inputs — zero
    tenants, a single tenant, a single-app mix, tenants with no arrivals —
    and produce a well-formed (possibly empty-bodied) table. *)

val mix_names : Engine.params -> string
(** Comma-joined application names of the mix, in popularity order. *)

val summary : ?max_rows:int -> Engine.result -> string
(** Header, per-tenant table (top [max_rows], default 8, by request
    count), per-shard table, and the aggregate/fairness lines.  When the
    run carried overload control, a per-shard admission/breaker table is
    appended — overload-off reports are byte-identical to before the
    subsystem existed. *)

val overload_line : Engine.result -> Engine.overload_stats -> string
(** One deterministic line of overload accounting:
    [overload policy=...: offered=... admitted=... shed=... (...) ...
    goodput=...rps accepted_p99=...us]. *)

val verdict_line : Engine.result -> string
(** One deterministic line:
    [traffic MIX tenants=N seed=S: requests=... offered_rps=... p50=...
    p99=... fairness=... noisy_p99=... opt_p50_adv=...] *)

val print : ?max_rows:int -> Engine.result -> unit
(** [summary], then ({!overload_line} when overload control ran), then
    {!verdict_line}, to stdout. *)
