(** Plain-text table rendering for the benchmark harness. *)

val table : header:string list -> string list list -> string
(** Left-aligned first column, right-aligned rest, column-fitted. *)

val print_table : title:string -> header:string list -> string list list -> unit
(** Render to stdout with a title line and a trailing blank line. *)

val f1 : float -> string
(** One decimal place. *)

val f2 : float -> string
val f3 : float -> string
val pct : float -> string
(** Ratio as a percentage, one decimal: [0.237 -> "23.7"]. *)

val ms : float -> string
(** Microseconds rendered as milliseconds, one decimal. *)

val mean : float list -> float

val stats_header : string list
val stats_row : string -> Flo_storage.Stats.t -> string list
(** One table row of counter columns (accesses .. prefetch hits). *)

val print_node_stats : title:string -> (string * Flo_storage.Stats.t) list -> unit
(** Per-node breakdown table: one labeled row per cache. *)

val latency_summary : Flo_obs.Histogram.t -> string
(** ["n=... mean=... p50=... p90=... p99=... max=..."] in microseconds. *)

val print_latency : title:string -> Flo_obs.Histogram.t -> unit

(** {1 Trace analysis} — rendering for [Flo_analysis] results. *)

val matrix : label:(int -> string) -> int array array -> string
(** Square matrix as a table with [label i] row/column headers. *)

val reuse_header : string list
val reuse_summary_row : string -> Flo_analysis.Reuse.t -> string list

val analysis_summary : ?max_matrix:int -> Flo_analysis.Analyzer.t -> string
(** The full text report of an analyzed trace: headline counters,
    per-cache reuse-distance tables, per-shared-cache sharing and
    eviction-conflict matrices (matrices elided beyond [max_matrix]
    threads, default 16), and the per-thread distinct-blocks-per-file
    table.  [flopt analyze] prints exactly this. *)

val print_analysis : ?max_matrix:int -> Flo_analysis.Analyzer.t -> unit

(** {1 Model fidelity} — rendering for [Flo_fidelity] joins. *)

val fidelity_summary : Flo_fidelity.Fidelity.t -> string
(** The full predicted-vs-observed report: model parameters, per-array
    Step II layout expectations, the per-(thread, file) Eq. 4 drift table,
    cross-thread sharing drift, per-cache bound checks, and a one-line
    verdict.  [flopt fidelity] prints exactly this. *)

val fidelity_line : Flo_fidelity.Fidelity.t -> string
(** One-line per-app summary (used by the suite-wide golden test). *)

val print_fidelity : Flo_fidelity.Fidelity.t -> unit

(** {1 Fault injection} — rendering for [Flo_faults] chaos sweeps. *)

val degradation_summary : Flo_core.Optimizer.plan -> string
(** The optimizer's degradation chain: one row per non-[Inter]/[Optimized]
    decision with its stage and machine-readable reason, or a single line
    when every array was fully optimized. *)

val chaos_point_counts : Experiment.chaos_point -> int * int * int * int
(** [(faults, retries, timeouts, failovers)] summed over the point's
    default and optimized runs. *)

val chaos_verdict : Experiment.chaos_point list -> string
(** Deterministic one-line verdict comparing the optimized layout's L2
    miss-per-element advantage (in percentage points) at the first and
    last fault scales: the advantage either ["persists"] or ["collapses"]
    under faults. *)

val chaos_summary : app:string -> seed:int -> Experiment.chaos_point list -> string
(** The full [flopt chaos] report: per-scale table (modeled times,
    normalized ratio, L2 miss/elem for both layouts, fault counters) plus
    the {!chaos_verdict} line prefixed ["chaos <app> seed=<n>: ..."]. *)

val print_chaos : app:string -> seed:int -> Experiment.chaos_point list -> unit
