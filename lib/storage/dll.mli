(** Mutable doubly-linked lists with external node handles.

    The recency list of {!Lru.reference}, the oracle the flat LRU kernel is
    tested against: all queue operations are O(1) given the node handle. *)

type 'a t
type 'a node

val create : unit -> 'a t
val length : 'a t -> int

val push_front : 'a t -> 'a -> 'a node
val push_back : 'a t -> 'a -> 'a node

val remove : 'a t -> 'a node -> unit
(** @raise Invalid_argument if the node is not currently in [t]. *)

val move_front : 'a t -> 'a node -> unit
val pop_back : 'a t -> 'a option

val iter : ('a -> unit) -> 'a t -> unit
(** Front (most recent) to back. *)

val clear : 'a t -> unit
