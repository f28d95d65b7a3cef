(** High-level experiment drivers: one function per table/figure family.

    All "normalized" values follow the paper: the optimized (or variant)
    execution time divided by the default execution's under the {e same}
    caching scheme, so 0.763 means a 23.7% improvement. *)

open Flo_core
open Flo_workloads

val default_layouts : App.t -> int -> File_layout.t
(** Row-major for every array — the paper's "original file layouts". *)

val inter_plan :
  ?weighted:bool -> ?scope:Internode.scope -> ?metrics:Flo_obs.Metrics.t ->
  Config.t -> App.t -> Optimizer.plan
(** Run the compiler pass for an app under a configuration.  [metrics]
    collects the optimizer's span histograms (see {!Flo_core.Optimizer.run}). *)

val inter_layouts :
  ?weighted:bool -> ?scope:Internode.scope -> Config.t -> App.t -> int -> File_layout.t

val default_run : ?mapping:int array -> ?caching:Run.caching -> Config.t -> App.t -> Run.result

val inter_run :
  ?mapping:int array ->
  ?caching:Run.caching ->
  ?weighted:bool ->
  ?scope:Internode.scope ->
  Config.t ->
  App.t ->
  Run.result

val normalized : base:Run.result -> Run.result -> float
(** Ratio of modeled execution times. *)

val reindex_best : ?sample:int -> Config.t -> App.t -> Reindex.outcome
(** The [27] baseline: profile-driven (sampled) exhaustive dimension
    reindexing, greedy per array.  Profiling is single-node centric — it
    evaluates a sequential one-cache system, the paper's stated limitation
    of prior layout work. *)

val inter_template_run : Config.t -> App.t -> Run.result
(** The Section 4.3 "template hierarchy" extension: a capacity-oblivious
    layout compiled once per fanout template (one-block chunks, minimal
    pattern), valid for every hierarchy of the template. *)

val reindex_static_run : Config.t -> App.t -> Run.result
(** Full-scale run under {!Flo_core.Reindex.dominant_order}'s static choice
    — the Fig. 7(g) comparator. *)

val compmap_best : ?sample:int -> Config.t -> App.t -> Compmap.outcome
(** The [26] baseline: iterative computation-mapping search (layouts stay
    row-major). *)

val compmap_run : ?sample:int -> Config.t -> App.t -> Run.result

val random_mapping : seed:int -> Config.t -> int array
(** Deterministic pseudo-random thread-to-compute-node permutation
    (Mappings II-IV of Fig. 7(b) use seeds 1-3). *)

val map_apps : ?jobs:int -> (App.t -> 'a) -> App.t list -> 'a list
(** {!Parallel.map_list} specialized to app sweeps: [f] runs once per app
    on a domain pool, results return in app order.  Every driver above is
    safe as [f] — they share no mutable state across apps. *)

type chaos_point = {
  scale : float;  (** fault-intensity scale applied to the plan *)
  plan : Flo_faults.Fault_plan.t;  (** the scaled plan actually injected *)
  default_r : Run.result;
  inter_r : Run.result;
  default_counts : Flo_faults.Injector.counts;
  inter_counts : Flo_faults.Injector.counts;
}

val chaos :
  ?scales:float list ->
  ?caching:Run.caching ->
  ?scope:Internode.scope ->
  ?jobs:int ->
  plan:Flo_faults.Fault_plan.t ->
  Config.t ->
  App.t ->
  chaos_point list
(** The [flopt chaos] sweep: for each scale (default [0; 0.5; 1; 2]) run
    the app under {!Flo_faults.Fault_plan.scale}[ plan scale] with both the
    default and the compiler-optimized layouts.  Each run gets a fresh
    injector compiled from the scaled plan, so points are independent and
    results are identical at every [jobs] setting; scale 0 is the
    fault-free reference (byte-identical to running without faults).
    @raise Invalid_argument if a scale is NaN, infinite or negative (before
    any run), or if the plan names a node outside the topology. *)

val fidelity :
  ?tolerance:float ->
  ?mapping:int array ->
  ?sample:int ->
  ?predict_block_elems:int ->
  layouts:(int -> File_layout.t) ->
  Config.t ->
  App.t ->
  Flo_fidelity.Fidelity.t * Run.result
(** Predicted-vs-observed accounting: simulate the app with a live
    {!Flo_analysis.Analyzer} sink, evaluate {!Flo_fidelity.Predict.compute}
    under the same run parameters, and {!Flo_fidelity.Fidelity.join} the
    two.  Under matching parameters every drift is exactly 0;
    [predict_block_elems] deliberately mis-parameterizes the model (e.g. to
    demonstrate nonzero flagged drift, or to ask "what if the compiler had
    assumed a different block size?"). *)

val drift_signal :
  ?mapping:int array ->
  ?sample:int ->
  layouts:(int -> File_layout.t) ->
  Config.t ->
  App.t ->
  Flo_fidelity.Drift.signal
(** One drift-watch observation window: the {!fidelity} loop distilled
    into the plain-value signal {!Flo_fidelity.Drift} folds — per-layer
    miss rates, L2 cross-thread sharing and its matrix (summed over the
    storage-node caches), and the model-vs-run fidelity drift.
    Deterministic for fixed arguments, so equal workloads always produce
    equal signals. *)
