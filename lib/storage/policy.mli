(** One cache of the hierarchy, as a record of closures.

    An instance owns a fixed-capacity set of blocks and decides evictions.
    Two kinds exist: LRU ({!Lru.create}, and the {!Lru.reference} oracle)
    and KARMA's partitioned caches ({!Karma.l1_cache}, {!Karma.l2_cache}),
    which refuse blocks of classes pinned to the other level.  {!Hierarchy}
    takes them as arrays, one cache per node. *)

type t = {
  touch : Block.t -> bool;
      (** Lookup; [true] on hit.  A hit refreshes the block's recency. *)
  insert : Block.t -> Block.t option;
      (** Cache the block at the MRU end; returns the victim evicted to
          make room, if any.  Inserting a resident block refreshes it and
          evicts nothing. *)
  insert_cold : Block.t -> Block.t option;
      (** Cache the block at the LRU end, the first to be evicted. *)
  remove : Block.t -> bool;
      (** Drop a block (exclusive-caching hook); [true] if it was resident. *)
  contains : Block.t -> bool;  (** Lookup without refreshing. *)
  size : unit -> int;
  clear : unit -> unit;
  iter : (Block.t -> unit) -> unit;
  fast : Flat_lru.t option;
      (** The flat allocation-free state backing the closures, when the
          cache is {!Lru.create}'s exact LRU; [None] for the others.
          {!Hierarchy} resolves this once at creation to devirtualize its
          hot path; the closures above must view the same state, so both
          call paths stay interchangeable. *)
}

type factory = capacity:int -> t
(** A fresh, empty cache of [capacity] blocks: {!Lru.create} or
    {!Lru.reference}.  [Run.Custom] builds a run's caches from a pair of
    these. *)

val check_capacity : int -> unit
(** @raise Invalid_argument when capacity < 1 (shared guard for factories). *)
