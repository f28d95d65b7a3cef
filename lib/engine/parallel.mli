(** Deterministic multicore fan-out for experiment grids.

    A fixed pool of [jobs] domains drains an atomic work queue over the
    input; results land in a per-task slot and are returned {e in input
    order}, so the output is independent of scheduling.  Tasks must not
    share mutable state: the experiment engine gives every task its own
    sinks, metrics registries and hierarchies, and merges at the join —
    which is what makes [--jobs N] reports bit-identical to [--jobs 1].

    [jobs = 1] (and any call on a 0/1-element input) never spawns a domain:
    it runs the exact sequential code path, which is the deterministic
    reference the qcheck equivalence properties compare against. *)

val parse_jobs : string -> (int, string) result
(** [FLOPT_JOBS]'s syntax: [Ok n] for a positive integer [n], else an
    [Error] naming the value. *)

val default_jobs : unit -> (int, string) result
(** The [FLOPT_JOBS] environment variable through {!parse_jobs} if set,
    else [Ok (Domain.recommended_domain_count ())].  This is what the CLI's
    [--jobs] flags default to; an explicit [--jobs N] never reads the
    variable.  It is the only reader of [FLOPT_JOBS]. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~jobs f arr] is [Array.map f arr] computed by [min jobs
    (Array.length arr)] domains (the caller's domain is one of them).
    [jobs] defaults to [Domain.recommended_domain_count ()]; [FLOPT_JOBS]
    is not read.  If tasks raise, every task still
    runs, all domains are joined, and the exception of the {e
    lowest-index} failing task is re-raised with its backtrace — again
    independent of scheduling.
    @raise Invalid_argument if [jobs < 1]. *)

val map_list : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** {!map} over lists, preserving order. *)
