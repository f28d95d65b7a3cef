(** Per-block toucher sets on packed block keys (private to
    [Flo_analysis]): each block's set of touching threads as a flat bitset,
    its degree, and the running sharing counters {!Locality} and {!Sharing}
    report.  Memory is O(blocks × ⌈distinct threads / 63⌉) words. *)

type t

val create : unit -> t

val intern : t -> int -> int
(** The block id of a packed block key ({!Packed.block}), assigning the
    next id to a new block; a new block starts with no touchers. *)

val add : t -> int -> int -> bool
(** [add t id thread] records that [thread] touched block [id]; [true] on
    its first touch of that block.  Callers check that [thread] is in
    [[0, 65535]] ({!Packed.check_id}). *)

val blocks : t -> int
(** Block ids assigned, touched or not. *)

val touched : t -> int
(** Blocks with at least one toucher. *)

val shared : t -> int
(** Blocks with two or more touchers. *)

val pairs : t -> int
(** Sum over blocks of [k * (k - 1) / 2] for [k] touchers. *)

(** {1 Threads} — by dense index, in order of first touch. *)

val threads : t -> int
val thread : t -> int -> int
(** The thread id of a dense index. *)

val dense : t -> int -> int
(** The dense index of a thread id, or [-1] if it touched nothing here. *)

val mem : t -> int -> int -> bool
(** [mem t id d]: the thread of dense index [d] touched block [id]. *)

val iter_members : t -> int -> (int -> unit) -> unit
(** The dense indices of block [id]'s touchers, ascending. *)
