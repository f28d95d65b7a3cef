(** Per-commit benchmark trajectory: an append-only, schema-versioned
    history of headline numbers, one row per commit, plus a self-contained
    static HTML/SVG trend page over it.

    [bench -- history --out FILE --commit ID --manifest MANIFEST] distills
    the manifest ({!Bench_schema}) into a handful of trend points,
    {!upsert}s them as the row for [ID], saves the history atomically, and
    regenerates the page.  Re-recording the same commit from the same
    manifest is idempotent — the row is replaced in place, so the history
    and the page are byte-identical.

    Rendering is a pure function of the history ({!render_page} touches no
    clock and no environment), so CI can diff regenerated pages. *)

val schema_name : string
(** ["flopt-bench-history"] — the file's self-identification. *)

val schema_version : int
(** Current version (1).  {!load} rejects other versions. *)

type point = { name : string; value : float; unit_ : string }
(** One trend series sample, e.g. [{name = "slo_burn_rate"; ...}]. *)

type row = { commit : string; points : point list }
(** One commit's samples; [points] is kept sorted by name. *)

type t = { version : int; rows : row list }
(** Rows in recording order — the trend page's x axis. *)

val empty : t

val valid_commit : string -> bool
(** Accepted commit ids: nonempty, at most 64 chars, drawn from
    [A-Za-z0-9._-].  Anything else (whitespace, path separators, control
    bytes) is rejected before it can reach the history or the page. *)

val upsert : t -> commit:string -> point list -> (t, string) result
(** Record [points] as the row for [commit]: replaces an existing row with
    the same id in place (its x position is preserved), appends otherwise.
    [Error] on an invalid commit id, an empty point list, a duplicate
    point name, or a non-finite value. *)

val find : t -> string -> row option

val series : t -> string -> (string * float) list
(** [(commit, value)] pairs of the rows carrying a point named [name], in
    row order — rows without it are gaps, not zeros. *)

val validate : t -> (unit, string) result
(** Supported version, valid commit ids, no duplicate commits, rows
    well-formed ({!upsert}'s point checks). *)

val to_json : t -> Flo_obs.Json.t
val of_json : Flo_obs.Json.t -> (t, string) result

val parse_string : string -> (t, string) result
(** Parse and {!validate}.  Total: any byte string returns [Error]. *)

val load : string -> (t, string) result
(** I/O, parse, and {!validate} errors all surface as [Error]. *)

val save : string -> t -> unit
(** {!Flo_obs.Json.write_atomic}: an interrupted save never truncates an
    existing history. *)

val metrics_of_manifest : Bench_schema.t -> point list
(** The trend points a manifest yields, all deterministic:
    [layout_gain_pct], the paper's headline — [100 * (1 - mean r)] over
    the apps with both gated [elapsed_us.default] and [elapsed_us.inter],
    where [r] is inter over default; [slo_burn_rate], the [_slo] fleet burn
    rate; and [overload_goodput_rps], the [_overload] goodput.  Series the
    manifest lacks (e.g. an old manifest without [_overload]) are simply
    absent — the page shows a gap.  Wall-clock metrics an old manifest
    still carries yield nothing. *)

val render_page : t -> string
(** Self-contained HTML document — inline CSS, inline SVG, no JavaScript,
    no external references — with one chart per trend series (commits on
    the x axis) and the full history as a table.  Deterministic: equal
    histories render byte-equal pages. *)
