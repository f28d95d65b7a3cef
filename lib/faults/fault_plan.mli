(** Declarative, seed-carrying fault plans.

    A plan is a list of fault clauses plus a retry policy and a seed; the
    {!Injector} compiles it against a concrete storage-node count.  The
    textual grammar (see [docs/ROBUSTNESS.md]) is what [flopt chaos
    --faults SPEC] parses:

    {v
    SPEC   := clause (';' clause)*
    clause := read-error:rate=R[,node=N]
            | latency:rate=R,mult=M[,node=N]
            | degrade:mult=M[,node=N]
            | cache-off:node=N
            | failover:node=N[,to=N']
            | retry:[max=K][,base=US][,mult=M][,jitter=J][,timeout=US]
    v}

    Omitting [node] applies a clause to every storage node.  [retry] fields
    not given keep their defaults ({!Retry.default}). *)

type spec =
  | Read_error of { node : int option; rate : float }
      (** each read attempt at the node fails with probability [rate] *)
  | Latency_spike of { node : int option; rate : float; multiplier : float }
      (** with probability [rate] a read's service time is multiplied *)
  | Degraded of { node : int option; multiplier : float }
      (** permanent service multiplier — a rebuilding / degraded RAID node *)
  | Cache_offline of { node : int }
      (** the node's storage cache is disabled: all-miss passthrough *)
  | Stripe_failover of { node : int; target : int option }
      (** stripe units of [node] are statically remapped to [target]
          (default: the next node); single-hop, no transitive routing *)

type t = {
  seed : int;  (** drives every stochastic draw; replay-exact *)
  retry : Retry.policy;
  specs : spec list;
}

val empty : t
(** Seed 0, {!Retry.default}, no clauses.  Hard invariant: running under
    [empty] (or any plan whose clauses are absent after {!scale}[ 0.])
    produces results byte-identical to the fault-free code path. *)

val is_empty : t -> bool
val with_seed : t -> int -> t

val scale : t -> float -> t
(** [scale t s] sweeps fault intensity: rates are multiplied by [s] (clamped
    to [0, 1]), [Degraded] multipliers interpolate as [1 + (m-1)*s], and
    structural clauses ([cache-off], [failover]) are kept for [s > 0] and
    dropped — along with everything else — at [s = 0], so scale 0 is
    exactly the fault-free reference point.
    @raise Invalid_argument naming [s] if it is NaN, infinite or
    negative. *)

val of_string : string -> (t, string) result
(** Parse the grammar above (seed is not part of the grammar — set it with
    {!with_seed}).  Validates ranges: rates in [[0, 1]], multipliers [>= 1],
    node ids [>= 0] (upper bounds are checked by {!Injector.create}, which
    knows the topology). *)

val to_string : t -> string
(** Canonical rendering; [of_string (to_string t) = Ok t] up to the seed. *)

(** {2 Grammar helpers}

    The key=value clause grammar is shared by the other fault-family spec
    parsers ({!Breaker.of_string}); these expose the primitive so the
    grammars stay aligned. *)

val parse_params : string -> ((string * string) list, string) result
(** ["k1=v1,k2=v2"] to an assoc list; duplicate keys are rejected. *)

val check_keys :
  clause:string -> allowed:string list -> (string * string) list ->
  (unit, string) result
(** Reject any key outside [allowed], naming the [clause] in the error. *)
