(** Layout drift watch: has the workload shifted far enough from the run
    the current layouts were optimized for that re-running the compiler
    pass is worth it?

    A {!signal} is one observation window's summary — per-layer miss
    rates, cross-thread sharing, the L2 sharing matrix, and the
    model-vs-run fidelity drift.  A detector ({!t}) holds the baseline
    signal (captured when the layouts were installed) and folds windows
    with {!observe}: each window's {!score} is the worst normalized
    component delta against the baseline, and the re-layout
    recommendation flips with hysteresis — it takes [streak] consecutive
    windows above [enter] to raise it and [streak] consecutive windows
    below [exit] to clear it, so a single noisy window can neither trigger
    nor cancel a recommendation.

    Pure value-level folding: no clocks, no I/O, no randomness — verdicts
    are a function of the signals alone. *)

type signal = {
  miss_l1 : float;  (** L1 misses per element access *)
  miss_l2 : float;  (** L2 misses per element access *)
  cross_shared : int;  (** cross-thread shared blocks observed at L2 *)
  sharing : (int * int * int) list;
      (** the L2 thread x thread shared-block matrix as sparse
          [(i, j, count)] cells over global thread ids, ascending, nonzero
          counts only (see {!sharing_of}); absent cells are 0 *)
  fidelity_rel : float;  (** max relative model-vs-run drift, >= 0 *)
}

(** Why a window scored what it did — one constructor per component, each
    carrying the baseline and observed values. *)
type reason =
  | Miss_rate_drift of { layer : string; baseline : float; current : float; rel : float }
  | Sharing_shift of { baseline : int; current : int; rel : float }
  | Matrix_shift of { rel : float }
      (** sum of absolute cell deltas between the sharing matrices, over
          the baseline's total mass *)
  | Fidelity_degraded of { baseline : float; current : float; rel : float }

val reason_to_string : reason -> string
(** One deterministic line per reason, e.g.
    [miss-rate-drift layer=l2 base=0.041 cur=0.087 rel=1.12]. *)

type config = {
  enter : float;  (** score at or above this counts towards raising *)
  exit_ : float;  (** score at or below this counts towards clearing *)
  streak : int;  (** consecutive high (low) windows required to raise (clear) *)
}

val default_config : config
(** [enter = 0.25], [exit_ = 0.10], [streak = 2]. *)

val validate_config : config -> (unit, string) result
(** [0 <= exit_ <= enter], a positive [streak]. *)

type t

val create : ?config:config -> baseline:signal -> unit -> t
(** A fresh detector: no windows seen, recommendation off.
    @raise Invalid_argument when {!validate_config} rejects [config]. *)

val score : t -> signal -> float * reason list
(** The window's score — the maximum normalized component delta against
    the baseline — and every component at or above the [enter] threshold,
    worst first.  Pure; does not advance the detector. *)

val observe : t -> signal -> t
(** Fold one window: update streaks and the recommendation. *)

val windows_seen : t -> int

val recommended : t -> bool
(** Current re-layout recommendation (hysteresis applied). *)

val reasons : t -> reason list
(** The reasons attached to the most recent recommendation flip to [on];
    [[]] while the recommendation is off. *)

val last_score : t -> float
(** Score of the most recent window; [0.] before any. *)

val status_line : t -> string
(** One deterministic line:
    [drift windows=N score=S recommend=yes|no reasons=[...]]. *)

val sharing_of : Flo_analysis.Analyzer.t -> (int * int * int) list
(** The {!signal}'s [sharing]: the L2 caches' {!Flo_analysis.Sharing.shared_among}
    matrices over their active threads, summed cell by cell. *)
