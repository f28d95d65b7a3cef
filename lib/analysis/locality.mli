(** Per-thread, per-file distinct-block counts — the paper's Step I
    objective (Eq. 4): how many distinct blocks of each file every thread
    drags through the hierarchy.  Feed the trace's [Access] events.

    Each block, keyed by its packed [(file, block)] int, carries a bitset
    of the threads that touched it and their count; a thread's first touch
    of a block bumps its [(thread, file)] count and the sharing counters
    below.  Memory is O(distinct blocks × ⌈distinct threads / 63⌉) words
    plus one count per [(thread, file)]. *)

type t

val create : unit -> t

val touch : t -> thread:int -> file:int -> block:int -> unit
(** @raise Invalid_argument when [thread] is outside [[0, 65535]] or
    [(file, block)] outside [Flo_storage.Block]'s packing range (file
    [< 2^26], block [< 2^36]). *)

val requests : t -> int
(** Touches recorded (block requests, not distinct blocks). *)

val distinct : t -> thread:int -> file:int -> int
(** 0 for a (thread, file) pair never seen. *)

val total_distinct : t -> thread:int -> int
(** Sum of {!distinct} over all files, per thread. *)

val threads : t -> int
(** [1 + ] the largest thread id seen (0 when empty). *)

val files : t -> int list
(** File ids seen, ascending. *)

val per_thread : t -> (int * (int * int) list) list
(** [(thread, [(file, distinct); ...])], both levels ascending. *)

(** {1 Request-level sharing} — over the full request stream, before any
    cache filters it: the observable the compiler's Step II prediction
    addresses directly (an inter-node layout at a matching block size
    assigns every block a single owner, so all three are minimal). *)

val distinct_blocks : t -> int
(** Distinct [(file, block)] pairs any thread touched. *)

val shared_blocks : t -> int
(** Distinct blocks touched by two or more threads. *)

val cross_pairs : t -> int
(** Sum over blocks of [k * (k-1) / 2] where [k] threads touched the block
    — the total unordered thread-pair co-touches. *)
