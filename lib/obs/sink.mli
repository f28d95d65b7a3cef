(** Pluggable event sinks.

    A sink is a pair of closures, so callers pay exactly one indirect call
    per event — and instrumented code can skip even that by testing
    {!is_null} first (the convention used by [Flo_storage.Hierarchy]). *)

type t = {
  emit : Event.t -> unit;
  flush : unit -> unit;  (** force buffered output out (no-op for most) *)
}

val null : t
(** Drops everything.  The default sink everywhere; compare with {!is_null}
    (physical equality) to skip event construction entirely. *)

val is_null : t -> bool

(** {1 Writers} *)

val jsonl : out_channel -> t
(** One {!Event.to_json} line per event.  [flush] flushes the channel; the
    caller owns (and closes) the channel. *)

val with_jsonl : string -> (t -> 'a) -> 'a
(** [with_jsonl path f] writes the trace to [path ^ ".part"], passes a
    {!jsonl} sink to [f], then closes and atomically renames the side file
    onto [path].  The rename also runs when [f] raises — every emitted
    event is a whole line, so a crashed run still publishes a complete,
    parseable JSONL prefix at [path].  A process killed mid-write leaves
    only the [.part] file behind: [path] is never truncated. *)

val callback : (Event.t -> unit) -> t
