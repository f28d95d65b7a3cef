(** Registry of named histograms with labeled dimensions.

    A histogram is identified by its name plus a set of [(key, value)]
    labels (order-insensitive): ["disk_service_us"] with [[("node", "3")]]
    is a different time series from the same name with [("node", "0")].
    Registration is idempotent — asking again for the same (name, labels)
    returns the same histogram, so hot paths can resolve handles once at
    setup. *)

type t

val create : unit -> t

val histogram :
  t -> ?labels:(string * string) list -> ?lo:float -> ?gamma:float -> ?buckets:int ->
  string -> Histogram.t
(** The shape parameters apply only on first registration; later lookups
    return the existing histogram unchanged. *)

val find_histogram : t -> ?labels:(string * string) list -> string -> Histogram.t option

val to_list : t -> (string * (string * string) list * Histogram.t) list
(** Live references, sorted by name, then labels — a stable order for
    reports and tests. *)
