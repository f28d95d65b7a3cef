(** Multi-Queue replacement (Zhou, Philbin & Li; the paper's reference [50]).

    Designed for second-level storage caches: [m] LRU queues indexed by
    log2(access frequency), per-block lifetimes that demote idle blocks one
    queue down, and a history buffer that remembers the frequency of evicted
    blocks so a re-fetched block rejoins its old queue.  Included as an extra
    policy to show the layout pass is policy-orthogonal. *)

val create : Policy.factory
(** 8 queues, lifetime [4 * capacity] accesses, history of [4 * capacity]
    entries. *)
