(** Phase profiling for the optimizer and trace generation.

    A span measures a named phase and records its duration (microseconds)
    into the registry histogram ["span.<name>"], so repeated phases build a
    latency distribution.  The clock is CLOCK_MONOTONIC: elapsed host time,
    the same at every [--jobs] value, unlike process CPU time, which sums
    over domains.  {!with_} without a registry reads no clock at all.  The
    clock is injectable for tests (and because the simulator's own time is
    simulated — spans measure the {e host} cost of compiler phases, not
    modeled I/O time).  This is the only clock in flopt outside the
    benchmark in [bench/perf]. *)

type t

val default_clock : unit -> float
(** The monotonic clock, in microseconds from an arbitrary origin. *)

val start : ?metrics:Metrics.t -> ?clock:(unit -> float) -> string -> t
(** Reads the clock, with or without a registry. *)

val stop : t -> float
(** Elapsed microseconds (clamped at 0); records into the registry if one
    was given.  Calling [stop] twice records twice. *)

val with_ : ?metrics:Metrics.t -> ?clock:(unit -> float) -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span; the duration is recorded even if the thunk
    raises.  Without [metrics] this is just [f ()]: no clock is read. *)
