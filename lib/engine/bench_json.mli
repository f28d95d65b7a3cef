(** Manifest collection for [flopt bench json], parallel over
    applications.

    Each application's metrics are computed by a self-contained task (own
    analyzer, fidelity join, layouts), fanned over {!Parallel.map_list} and
    concatenated in application order — so the manifest is bit-identical
    for every [jobs] value, including the sequential [jobs = 1]
    reference, and across runs.  Every metric is modeled and gated; wall
    time is measured by the benchmark in [bench/perf], never here. *)

open Flo_workloads

val collect :
  ?jobs:int ->
  ?sample:int ->
  ?progress:(string -> unit) ->
  config:Config.t ->
  App.t list ->
  Bench_schema.t
(** Per-app gated metrics under [config]: modeled elapsed time, per-layer
    miss rates, L2 cross-thread sharing, L1 reuse median (when any reuse
    was seen) for the default and inter layouts, and the inter layouts'
    fidelity drift and flagged rows.  [progress] is called with each app
    name as its task starts (may interleave across domains).  [jobs]
    defaults to {!Parallel.default_jobs}. *)
