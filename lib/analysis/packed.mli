(** Packed integer keys and the open-addressing table every analyzer view
    keys its per-block state by (private to [Flo_analysis]). *)

val max_file : int
(** [2^26 - 1]: a block key's file component, as in [Flo_storage.Block]. *)

val max_index : int
(** [2^36 - 1]: a block key's index component. *)

val file_bits : int
(** [26]: the width of a file id, for keys that pair it with a thread. *)

val id_bits : int
(** [16]: the width of a thread or node id. *)

val max_id : int
(** [65535]: the largest thread or node id the views accept. *)

val block : file:int -> block:int -> int
(** The packed block key, file in the high bits.
    @raise Invalid_argument when [file] or [block] is outside
    [[0, max_file]] / [[0, max_index]]. *)

val file : int -> int
val index : int -> int

val check_id : string -> int -> unit
(** [check_id what v] @raise Invalid_argument unless [0 <= v <= max_id]. *)

val grow : int array -> int -> int -> int array
(** [grow a i fill], for an index [i] past the end of the column [a]: a
    copy at least twice as long that holds [i], new cells set to [fill]. *)

(** {1 Key → dense id} *)

type t

val create : unit -> t

val intern : t -> int -> int
(** The key's id, assigning the next one ([length] before the call) to a
    new key.  @raise Invalid_argument on a negative key. *)

val find : t -> int -> int
(** The key's id, or [-1] for a key never interned (any negative key). *)

val length : t -> int
(** Keys interned; ids are [0 .. length - 1]. *)

val key : t -> int -> int
(** The key an id was assigned to. *)
