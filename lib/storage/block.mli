(** Data blocks: the unit of storage-cache management and striping.

    A block is identified by the file it belongs to (one file per
    disk-resident array) and its index within that file's linear block
    space.  Block size is a topology parameter; this module is agnostic.

    The representation is a packed immediate int — [file] in the high bits,
    [index] in the low [index_bits] bits — so blocks are unboxed, block
    streams are plain [int array]s, and hashing is identity-cheap.  The
    packing is an implementation detail: construct with {!make} and coerce
    with [(b :> int)] / {!unsafe_of_int} only at flat-kernel boundaries. *)

type t = private int

val index_bits : int
(** Number of low bits holding [index]; [file] occupies the rest. *)

val max_file : int
val max_index : int

val make : file:int -> index:int -> t
(** @raise Invalid_argument on a negative or out-of-range file or index. *)

val to_int : t -> int
(** The packed representation (also available as [(b :> int)]). *)

val unsafe_of_int : int -> t
(** Reinterpret a packed int as a block without validation.  Only for
    values previously obtained from [(b :> int)] / {!to_int}. *)

val file : t -> int
val index : t -> int

val compare : t -> t -> int
(** Lexicographic on (file, index) — the packed int's natural order. *)

val equal : t -> t -> bool
val hash : t -> int
val pp : Format.formatter -> t -> unit

module Tbl : Hashtbl.S with type key = t
module Set : Set.S with type elt = t
