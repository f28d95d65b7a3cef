(** Machine-readable benchmark trajectory.

    [bench -- json --out FILE] writes one {e manifest}: a versioned JSON
    document recording, per application, the headline numbers of that
    invocation — modeled execution times, per-layer miss rates, L2
    cross-thread sharing, reuse-distance medians and fidelity drift per
    application, plus traffic, SLO, tracing and overload numbers.
    [flopt bench-diff OLD NEW] loads two manifests and reports per-metric
    changes, optionally failing the process when a {e gated} metric
    regressed past a threshold or disappeared.

    Gating convention: every metric [bench -- json] records is
    deterministic (a modeled quantity, identical on every machine and at
    every [--jobs] value).  The per-application ones are [gated], so a
    checked-in baseline stays comparable in CI; {b higher is worse} for
    them.  The fleet-level ones are [gated = false]: trajectory data that
    moves whenever the modeled engine is meant to change, never a gate.
    Wall-clock time is not recorded here: [bench/perf] measures it.

    The manifest is a {!Flo_obs.Json} document: it is parsed, printed and
    saved with that codec, so it shares its escapes, nesting cap and
    atomic writer with every other file flopt reads or writes. *)

val schema_name : string
(** ["flopt-bench"] — the manifest's self-identification. *)

val schema_version : int
(** Current version (1).  Bump on any incompatible layout change; {!load}
    rejects other versions. *)

type metric = {
  app : string;
  name : string;  (** e.g. ["elapsed_us.inter"] *)
  value : float;
  unit_ : string;  (** ["us"], ["miss/elem"], ["blocks"], ... *)
  gated : bool;  (** deterministic — compared against the baseline *)
}

type t = {
  version : int;
  apps : string list;  (** apps the invocation covered, in order *)
  sample : int;  (** profile-mode sampling factor used *)
  block_elems : int;
  threads : int;
  metrics : metric list;
}

val make :
  apps:string list -> sample:int -> block_elems:int -> threads:int ->
  metric list -> t
(** A manifest of the current {!schema_version}. *)

val validate : t -> (unit, string) result
(** Structural checks: supported version, non-empty apps, positive config
    fields, no NaN values, no duplicate [(app, name)] pair.  {!load} runs
    this automatically. *)

val to_json : t -> Flo_obs.Json.t

val of_json : Flo_obs.Json.t -> (t, string) result
(** Decode and {!validate}; a count field ([version], [sample], ...) must
    be an integral number. *)

val save : string -> t -> unit
(** {!Flo_obs.Json.write_atomic}: an interrupted save never leaves a
    truncated manifest — the previous contents of [path] survive instead.
    The file is the compact printing plus a newline. *)

val parse_string : string -> (t, string) result
(** Parse and {!validate} a manifest from a string.  Total: any byte
    string — truncated, binary, deeply nested — returns [Error], never
    raises. *)

val load : string -> (t, string) result
(** I/O, parse, and {!validate} errors all surface as [Error]. *)

(** {1 Trajectory diffing} *)

type change = {
  c_app : string;
  c_name : string;
  c_unit : string;
  c_gated : bool;
  old_value : float;
  new_value : float;
  delta_pct : float;
      (** [(new - old) / old * 100]; 0 when both are 0, [infinity] when a
          zero-cost metric became nonzero *)
}

type diff = {
  changes : change list;  (** metrics present in both manifests *)
  added : metric list;  (** only in the new manifest *)
  removed : metric list;  (** only in the old manifest *)
}

val diff : old_:t -> new_:t -> diff

val regressions : ?threshold:float -> diff -> change list
(** Gated changes whose [delta_pct] exceeds [threshold] (percent, default
    0).  Higher-is-worse: a positive delta is a regression. *)

val missing_gated : diff -> metric list
(** Gated metrics of the old manifest that the new one lacks.  bench-diff
    counts each as a regression at every threshold; ungated removals are
    informational. *)

val improvements : ?threshold:float -> diff -> change list
