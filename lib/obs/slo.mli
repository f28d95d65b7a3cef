(** Declarative service-level objectives over modeled time windows.

    An SLO names an objective (a latency threshold at a quantile, or an
    error-rate ceiling) and a target: the fraction of time windows that
    must meet the objective.  Evaluation follows the SRE multi-window /
    multi-burn-rate recipe: each window is scored good or bad, the error
    budget is the allowed fraction of bad windows, and alerts fire when a
    large share of the whole period's budget is consumed within a short
    trailing span (fast/page: 5%) or a long one (slow/ticket: 1%).

    Everything here is pure arithmetic over per-window [{total; breaching}]
    sample counts — no clocks, no randomness — so verdicts are
    byte-reproducible wherever the counts are. *)

type objective =
  | Latency of { quantile : float; threshold_us : float }
      (** ["p99<800us"]: a window is good iff at most [1 - quantile] of its
          requests took longer than [threshold_us]. *)
  | Error_rate of { max_rate : float }
      (** ["err<0.5%"]: a window is good iff at most [max_rate] of its
          requests failed. *)

type spec = {
  objective : objective;
  target : float;  (** required fraction of good windows, in [(0, 1)] *)
}

val parse : string -> (spec, string) result
(** Grammar: [pQ<Nunit@T] or [err<N%@T], e.g. ["p99<800us@99.9"] (the p99
    latency must stay under 800 us in 99.9% of windows), ["p50<2ms@99"],
    ["err<0.5%@99.9"].  Units: [us], [ms], [s].  [T] is a percentage in
    [(0, 100)].  Errors are structured messages, never exceptions. *)

val to_string : spec -> string
(** Canonical spelling; [parse (to_string s)] succeeds with an equal spec. *)

type sample = { total : int; breaching : int }
(** One window's request counts: how many requests the window saw and how
    many violated the objective (exceeded the latency threshold, or
    failed).  Both objective kinds reduce to this shape: "p99 under C"
    holds iff at most 1% of requests exceed C. *)

val good : spec -> sample -> bool
(** Whether one window meets the objective.  An empty window ([total = 0])
    is good: no traffic violated anything. *)

type verdict = {
  spec : spec;
  windows : int;
  good_windows : int;
  bad_windows : int;
  bad_flags : bool array;  (** per window, in time order *)
  compliance : float;  (** good / windows; 1 when there are no windows *)
  budget_windows : float;  (** allowed bad windows, [(1 - target) * windows] *)
  budget_consumed : float;
      (** bad / budget; [infinity] when the budget is 0 and a window is bad *)
  budget_remaining : float;  (** [max 0 (1 - budget_consumed)] *)
  burn_rate : float;
      (** budget consumption speed: bad-window {e rate} over the allowed
          rate, [(bad / windows) / (1 - target)]; 1.0 burns exactly the
          budget by period end, above 1 exhausts it early *)
  fast_pages : int;
      (** windows where the fast alert fired: the window is bad and the
          trailing span of 1 window consumed >= 5% of the period budget *)
  slow_tickets : int;
      (** same with a trailing span of [max 1 (windows / 4)] windows and a
          1% consumption threshold *)
  compliant : bool;  (** [compliance >= target] *)
}

val evaluate : spec -> sample array -> verdict
(** Score the period.  [samples] is one entry per window in time order.
    With few modeled windows the 5%/1%
    thresholds can fall below one window — then any bad window alerts,
    which is the conservative reading.
    @raise Invalid_argument on a sample with negative counts or
    [breaching > total]. *)
