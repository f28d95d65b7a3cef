(** The complete inter-node file layout optimization pass (Algorithm 1),
    with an explicit degradation chain.

    For every disk-resident array of the program: collect its references,
    weight and group them, run Step I ({!Array_partition}); on success build
    the Step II inter-node layout.  When a stage cannot run, the pass
    degrades explicitly rather than failing:

    {ul
    {- [Inter]: the full inter-node layout (Step I + Step II over [scope]).}
    {- [Intra]: Step II restricted to the I/O layer ({!Internode.Io_only})
       — taken when the inter-node pattern does not fit the hierarchy.}
    {- [Canonical]: the row-major fallback — opaque arrays, unsolvable or
       low-coverage Step I, or a Step II that fails at both scopes.}}

    Every decision carries a machine-readable {!reason} for reports and the
    [flopt plan]/[flopt chaos] CLI (the paper optimized about 72% of arrays
    across its suite; the rest land in [Canonical]). *)

open Flo_poly

type stage = Inter | Intra | Canonical

type reason =
  | Optimized  (** full inter-node result *)
  | Opaque  (** subscripts the polyhedral front-end cannot analyze *)
  | Step1_unsolvable  (** no consistent partition exists *)
  | Low_coverage of float
      (** Step I succeeded but satisfies no strict weight-majority of the
          references; restructuring would hurt more than it helps *)
  | Step2_failed of string
      (** layout construction failed; on stage [Intra] the intra-node
          retreat succeeded, on stage [Canonical] both scopes failed *)

type decision = {
  array_id : int;
  array_name : string;
  layout : File_layout.t;
  partition : Array_partition.result option;  (** [None]: Step I never held *)
  stage : stage;
  reason : reason;
}

type plan = {
  program : Program.t;
  scope : Internode.scope;
  decisions : decision list;  (** one per array, in id order *)
}

val stage_to_string : stage -> string

val reason_to_string : reason -> string
(** Machine-readable: ["optimized"], ["opaque"], ["step1-unsolvable"],
    ["low-coverage:<c>"], ["step2-failed:<msg>"]. *)

val run :
  ?weighted:bool ->
  ?scope:Internode.scope ->
  ?metrics:Flo_obs.Metrics.t ->
  spec:Internode.spec ->
  Program.t ->
  plan
(** [weighted:false] is ablation A1 (unweighted constraint ordering).
    An array is restructured only when the found transformation satisfies
    a strict weight-majority (coverage above 0.5) of its references.
    [scope] defaults to [Both].  [metrics] records the host
    cost of each phase into the span histograms
    ["span.optimizer.step1_solve"] and ["span.optimizer.step2_layout"].
    Never raises on degradation: Step II failures fall through the chain
    above. *)

val layout_of : plan -> int -> File_layout.t
(** @raise Not_found for unknown array ids. *)

val optimized_count : plan -> int
(** Arrays not at the [Canonical] stage. *)

val total_arrays : plan -> int

val degraded : plan -> decision list
(** Decisions that are not full [Inter]/[Optimized] results — what a
    degradation report lists. *)

val mean_coverage : plan -> float
(** Average Step I weight coverage over non-canonical arrays (1.0 when
    every reference's constraints were satisfied). *)

val pp : Format.formatter -> plan -> unit
