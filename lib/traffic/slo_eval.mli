(** SLO evaluation over traffic-engine results.

    Turns one {!Engine.result} into per-window {!Flo_obs.Slo.sample} counts
    — per tenant, per layout cohort, and fleet-wide — and scores them
    against a spec with the multi-window / multi-burn-rate machinery.  All
    inputs are modeled quantities, so verdicts are byte-identical at every
    [--jobs] value and on every machine. *)

type scope =
  | Tenant of int
  | Cohort of bool  (** [true] = the optimized-layout cohort *)
  | Fleet

val scope_to_string : scope -> string
(** ["tenant 3"], ["cohort default"], ["cohort optimized"], ["fleet"]. *)

type row = { scope : scope; verdict : Flo_obs.Slo.verdict }

type t = {
  spec : Flo_obs.Slo.spec;
  windows : int;
  tenant_rows : row array;  (** indexed by tenant id *)
  cohort_rows : row list;  (** default first, then optimized; empty cohorts skipped *)
  fleet : row;
}

val samples_of_tenant : Flo_obs.Slo.spec -> Engine.result -> int -> Flo_obs.Slo.sample array
(** One sample per window for one tenant, summed over the cells
    {!Engine.cells} walks — the requests the replay served, each with its
    serving kernel and congestion multiplier; shed requests never count.
    For a latency objective, a request breaches when its class latency
    times the cell's multiplier exceeds the threshold (the same apportioned
    counts the replay histograms use); for an error objective, breaches
    are the kernel's failed-read attempts per job, capped at the window's
    access count. *)

val evaluate : Flo_obs.Slo.spec -> Engine.result -> t
(** Score every tenant, both layout cohorts, and the fleet. *)
