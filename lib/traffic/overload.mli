(** Overload-control policies for the traffic engine: admission control,
    load shedding, brownout, and circuit breaking.

    This module holds the pure decision machinery — policy/spec types, the
    largest-remainder integer apportioning shed decisions are made with,
    and parameter validation.  {!Engine} threads it through the simulation:
    a per-(shard, window) admission controller keeps admitted service
    demand at or under [capacity * window length], shedding (or degrading)
    whole jobs; a per-storage-node {!Flo_faults.Breaker} routes an
    unhealthy node's traffic along the failover path.  Every decision is a
    deterministic function of (params, plans): no draws, no wall clock, so
    shed counts and breaker trajectories are byte-identical at every
    [--jobs] value.  [Engine.params.overload = None] runs the engine's
    identity controller instead: every job admitted at home. *)

(** How excess demand is dropped once a (shard, window) exceeds the
    capacity target. *)
type policy =
  | Fail_fast  (** reject excess jobs outright, uniformly across classes *)
  | Priority
      (** reject default-cohort jobs first; the optimized (paying) cohort
          is only shed once the default cohort is fully shed *)
  | Brownout
      (** degrade instead of rejecting: excess jobs are served by a
          reduced-fidelity kernel variant (the closed-loop run compiled at
          [sample * brownout_factor] — the existing profile-sampling [Run]
          knob), which serves a sampled subset of each job's accesses *)

val policy_to_string : policy -> string
val policy_of_string : string -> (policy, string) result
(** ["fail-fast"], ["priority"], ["brownout"].  ["off"] is not a policy —
    the CLI maps it to [shed = None]. *)

type params = {
  shed : policy option;
      (** [None]: admission control off (breaker-only mode — [capacity]
          is ignored and no job is ever shed) *)
  capacity : float;
      (** max sustainable utilization per (shard, window): admitted demand
          is kept at or under [capacity * window length], so the congestion
          multiplier of accepted requests is bounded by [1 + capacity]
          (plus at most one job per class of rounding).  The service
          quantum is a whole job: a window whose every job exceeds the
          target still admits exactly one, so a shard never stalls — the
          bound then degrades to one job's demand. *)
  brownout_factor : int;
      (** sampling multiplier of the brownout kernel variant; only used
          by the [Brownout] policy *)
  breaker : Flo_faults.Breaker.spec option;  (** per-storage-node breaker *)
}

val default : params
(** Fail-fast shedding at capacity 1.0, brownout factor 8, no breaker. *)

val validate : params -> (unit, string) result
(** Requires a positive [capacity], [brownout_factor >= 2], a valid
    breaker spec, and at least one control enabled ([shed] or [breaker]). *)

val describe : params -> string
(** One-line rendering for report headers, e.g.
    ["policy=fail-fast capacity=1 breaker=open=0.1,..."]. *)

val split : counts:int array -> keep:int -> int array
(** Keep [keep] of [sum counts] jobs, apportioned across the classes by
    largest remainder — the same arithmetic as {!Kernel.apportion}, so
    shed decisions are exact integers: the result sums to
    [min keep (sum counts)] (or [0] when [keep <= 0]), never exceeds
    [counts] pointwise, and ties break by class index.  Deterministic. *)

(** One admitted slice of a (tenant, window, rank)'s jobs: how many jobs,
    by which kernel variant, under which serving shard's congestion
    multiplier.  A (window, rank) cell can hold several
    segments (e.g. a half-open probe served locally plus the remainder
    failed over); replay, tracing and SLO scoring all walk segments in
    identical order. *)
type variant =
  | Normal
  | Fail_fast_serve  (** retry-suppressed kernels: retries shed first *)
  | Browned  (** reduced-fidelity brownout kernels *)

type seg = {
  sg_variant : variant;
  sg_jobs : int;
  sg_mult : float;  (** the serving (shard, window)'s congestion multiplier *)
}

val variant_to_string : variant -> string
