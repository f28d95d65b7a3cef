(** The paper's evaluation (Section 5) as data: every table, figure and
    ablation, with the claims each one checks.  {!memo} runs each distinct
    simulation the chosen sections read, keyed by (topology, app, variant),
    once on the {!Parallel} pool before anything renders, so the output is
    the same at every [jobs].  A claim's {!verdict} is HOLDS, DEVIATES (a
    known deviation, pinned with its reason) or BROKEN; a pinned deviation
    that no longer deviates is BROKEN too, so a stale reason cannot stay. *)

type claim = {
  section : string;  (** e.g. ["fig7a"] *)
  text : string;
  paper : string;  (** the paper's value or statement *)
  measured : string;
  holds : bool;  (** whether the measurement satisfies the claim *)
  pinned : string option;  (** [Some reason]: expected {e not} to hold, for this reason *)
}

type verdict = Holds | Deviates of string | Broken | Vanished of string
(** [Vanished reason]: the claim holds although a deviation is pinned. *)

val verdict : claim -> verdict

val failed : verdict -> bool  (** [Broken] and [Vanished] *)

val verdict_to_string : verdict -> string  (** ["DEVIATES: reason"], ["BROKEN"], ... *)

val claims_table : claim list -> string  (** markdown, one row per claim, no final newline *)

type section

val name : section -> string

val sections : section list  (** the 18 sections in paper order, [table1] … [analysis] *)

val select : string list -> (section list, string) result
(** The named sections in {!sections} order, each once; [[]] is all of them.
    Unknown names: [Error "unknown section \"fig7z\" (known: ...)"]. *)

type memo

val memo : ?jobs:int -> ?config:Config.t -> ?apps:Flo_workloads.App.t list -> section list -> memo
(** Simulate what the sections read.  [config] (default {!Config.default})
    is the base the sweeps vary; [apps] (default the suite) are the rows. *)

val render : memo -> section -> string
(** Title, table and summary lines, as printed.
    @raise Invalid_argument if the memo was built without the section. *)

val claims : memo -> section -> claim list
