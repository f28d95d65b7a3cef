(** Predicted-vs-observed join: does the run the hierarchy actually served
    match the run the compiler's cost model promised?

    {!join} takes a {!Predict.t} (the analytical side) and an
    [Flo_analysis.Analyzer.t] (the observed side, live or from a [--trace]
    file) and lines them up:

    - one {!row} per [(thread, file)] pair with the predicted and observed
      distinct-block counts (Step I / Eq. 4);
    - whole-run cross-thread sharing, predicted vs observed at the request
      level (Step II);
    - one {!layer_row} per cache, checking that observed cache-level sharing
      stays within the request-level predicted bound (a cache can only see a
      subset of the request stream).

    Everything is exact integer bookkeeping: under matching run parameters
    the model reproduces the runtime's access sets and every drift is 0;
    a mismatched block size or thread count shows up as nonzero drift,
    flagged against [tolerance]. *)

type row = {
  thread : int;
  file : int;
  predicted : int;  (** model-side distinct blocks (Eq. 4) *)
  observed : int;  (** trace-side distinct blocks *)
}

type layer_row = {
  cache : string;  (** {!Flo_analysis.Analyzer.cache_name} *)
  observed_cross : int;  (** cache-level cross-thread shared pairs *)
  predicted_bound : int;  (** request-level predicted pair bound *)
  violated : bool;  (** observed exceeds the bound *)
}

type t = {
  app : string;
  tolerance : float;
  predict : Predict.t;
  rows : row list;  (** ascending [(thread, file)] *)
  predicted_cross_shared : int;
  observed_cross_shared : int;
  predicted_cross_pairs : int;
  observed_cross_pairs : int;
  layer_rows : layer_row list;
}

val join :
  ?tolerance:float ->
  predict:Predict.t ->
  observed:Flo_analysis.Analyzer.t ->
  unit ->
  t
(** Rows cover the union of pairs either side knows about — a pair present
    on only one side is itself drift.  [tolerance] (default 0) is the
    relative-error budget used by {!flagged} and {!ok}.
    @raise Invalid_argument on a negative or non-finite [tolerance]. *)

(** {1 Per-row drift} *)

val abs_drift : row -> int
val rel_drift : row -> float
(** [|obs - pred| / pred]; 0 when both are 0, [infinity] when only the
    prediction is 0. *)

(** {1 Aggregates} *)

val flagged : t -> row list
(** Rows whose relative drift exceeds the tolerance. *)

val max_abs_drift : t -> int
val max_rel_drift : t -> float
val sharing_drift : t -> int
val sharing_rel_drift : t -> float
val pairs_drift : t -> int
val layer_violations : t -> layer_row list

val ok : t -> bool
(** No flagged rows, sharing drift within tolerance, no layer violations. *)
