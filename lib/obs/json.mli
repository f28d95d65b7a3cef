(** The JSON codec every flopt reader and writer shares: a tree, a total
    parser, one string escaper, exact number writers, the compact printer,
    typed field accessors for decoders, and the atomic file writer saved
    documents go through.

    Event traces ({!Event}), sampled request traces ({!Trace}), bench
    manifests and the bench history all decode through this one parser, so
    a byte string means the same thing in every file flopt reads.  Writers
    that format their own lines (the trace encoders, the Perfetto exporter)
    still route every string through {!escape} and every number through
    {!add_int}, {!add_fixed3} or {!add_hex64}. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse of string

val max_depth : int
(** Deepest container nesting {!parse} accepts (64): [[[1]]] nests 3
    deep.  The cap turns a hostile ["[[[[..."] into a {!Parse} error
    instead of a stack overflow. *)

val parse : string -> t
(** Whole-input parse; whitespace around the value is allowed.  String
    escapes follow RFC 8259: [\uXXXX] decodes to UTF-8 (a surrogate pair
    combines into one code point, a lone surrogate is an error), and a
    backslash before anything but [u], a double quote or one of
    [\ / b f n r t] is an error.  Of two duplicate keys the first wins
    ({!member}).  @raise Parse on malformed input, trailing garbage, or
    nesting deeper than {!max_depth} — never anything else. *)

val escape : string -> string
(** The body of a JSON string literal, without the quotes: a double quote
    and a backslash get a backslash, bytes below 0x20 become [\u00XX]
    (lowercase hex), and every other byte passes through.  Returns its
    argument when nothing needs escaping. *)

(** {1 Number writers}

    What the line encoders ({!Event.to_json}, {!Trace.to_buffer}, the
    Perfetto exporters) append instead of formatting with [Printf].  Each
    is exact: its bytes equal the [Printf] conversion named below on every
    input, which a test checks on random bit patterns and edge cases. *)

val add_int : Buffer.t -> int -> unit
(** The bytes of [string_of_int n], including [min_int]. *)

val add_fixed3 : Buffer.t -> float -> unit
(** The bytes of [Printf.sprintf "%.3f" x].  For finite [|x| < 2^50] the
    value is rounded in integer arithmetic on its exact binary expansion,
    half to even as printf does (so [0.0625] prints [0.062]); the sign
    comes from the sign bit, so [-0.0] prints [-0.000].  Non-finite values
    and [|x| >= 2^50] fall back to [Printf.bprintf]. *)

val add_hex64 : Buffer.t -> int64 -> unit
(** 16 lowercase, zero-padded hex digits: the bytes of
    [Printf.sprintf "%016Lx" id], two's complement for negative ids. *)

val to_string : t -> string
(** Compact single-line rendering; integral numbers below 1e15 in magnitude
    print without a decimal point, others with 17 significant digits.
    [parse (to_string t) = t] for finite numbers. *)

(** {1 Decoding}

    Converters raise {!Parse} with a message naming what was expected;
    {!field} prefixes it with the field's name. *)

val fail : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Parse} with a formatted message. *)

val str : t -> string
val num : t -> float

val int : t -> int
(** An integral number; [1.5] is an error, not [1]. *)

val bool : t -> bool
val list : (t -> 'a) -> t -> 'a list

val member : string -> t -> t option
(** The first field named so; [None] on a missing field or a non-object. *)

val field : string -> (t -> 'a) -> t -> 'a
(** [field name conv obj] converts the named field.  @raise Parse when it
    is missing or [conv] rejects it. *)

val field_opt : string -> (t -> 'a) -> t -> 'a option
(** Like {!field}, but [None] when the field is absent. *)

val decode : (t -> 'a) -> string -> ('a, string) result
(** [parse], then convert; a {!Parse} error from either becomes [Error]. *)

(** {1 Atomic files} *)

val write_atomic : string -> (out_channel -> unit) -> unit
(** [write_atomic path f] runs [f] on a fresh side file [path ^ ".tmp"],
    fsyncs and closes it, then renames it onto [path]: readers see the old
    contents or the whole new file, never a prefix.  On any failure the side
    file is removed, [path] is left untouched and the exception (e.g.
    [Sys_error] for an unwritable directory) propagates. *)

val probe_writable : string -> unit
(** Create and remove {!write_atomic}'s side file for [path], so a caller
    can reject an unwritable path before doing the work whose result it
    will write.  Leaves no file behind.
    @raise Sys_error as {!write_atomic} would, with the same message, when
    the side file cannot be created or [path] is a directory. *)
