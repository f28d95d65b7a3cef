(** Deterministic splitmix64 pseudo-random stream.

    The fault subsystem never consults [Random] or the wall clock: every
    stochastic decision is drawn from one of these generators, seeded from
    the fault plan, so a (seed, plan) pair replays the exact same fault
    timeline on every run, on every machine, at every [--jobs] setting. *)

type t

val create : seed:int -> t
(** A generator whose stream is a pure function of [seed]. *)

val for_stream : seed:int -> stream:int -> t
(** A decorrelated substream: [for_stream ~seed ~stream:i] for distinct [i]
    yields independent-looking sequences from the same seed.  The injector
    gives each storage node its own substream (keyed by node id), so the
    draws a node sees depend only on its own request sequence — never on
    how requests to {e other} nodes interleave. *)

val next_int64 : t -> int64
(** The raw 64-bit splitmix64 output; advances the state. *)

val nth : int64 -> int -> int64
(** [nth s k] is the [k]-th output (from 0) of a generator whose state is
    [s], without building one: {!at} is [nth] from a substream's starting
    state, and [Trace.span_id] is [nth] from a trace id. *)

val at : seed:int -> stream:int -> int -> int64
(** [at ~seed ~stream k] is the [k]-th output of
    [for_stream ~seed ~stream] — random access into the counter sequence
    without allocating or advancing a generator, so independent shards can
    address the same draw without sharing state.  Trace ids are minted this
    way: a pure function of (seed, stream, index).
    @raise Invalid_argument if [k < 0]. *)

val float : t -> float
(** Uniform draw in [[0, 1)]; advances the state (53 mantissa bits). *)

val int : t -> bound:int -> int
(** Uniform draw in [[0, bound)].  @raise Invalid_argument if [bound <= 0]. *)
