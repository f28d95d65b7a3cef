(* Per-commit benchmark trajectory: append-only history rows distilled from
   bench manifests, plus a static HTML/SVG trend page.  Parsed, printed and
   saved with Flo_obs.Json, like the manifests. *)

module Json = Flo_obs.Json

let schema_name = "flopt-bench-history"
let schema_version = 1

type point = { name : string; value : float; unit_ : string }
type row = { commit : string; points : point list }
type t = { version : int; rows : row list }

let empty = { version = schema_version; rows = [] }

let valid_commit s =
  let ok = ref (s <> "" && String.length s <= 64) in
  String.iter
    (fun c ->
      match c with
      | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '.' | '_' | '-' -> ()
      | _ -> ok := false)
    s;
  !ok

let check_points commit points =
  let ( let* ) r f = Result.bind r f in
  let* () = if points = [] then Error "no trend points" else Ok () in
  let* () =
    match List.find_opt (fun p -> not (Float.is_finite p.value)) points with
    | Some p ->
      Error (Printf.sprintf "point %s of commit %s is not finite" p.name commit)
    | None -> Ok ()
  in
  let seen = Hashtbl.create 8 in
  List.fold_left
    (fun acc p ->
      let* () = acc in
      if Hashtbl.mem seen p.name then
        Error (Printf.sprintf "duplicate point %s in commit %s" p.name commit)
      else begin
        Hashtbl.add seen p.name ();
        Ok ()
      end)
    (Ok ()) points

let upsert t ~commit points =
  let ( let* ) r f = Result.bind r f in
  let* () =
    if valid_commit commit then Ok ()
    else
      Error
        (Printf.sprintf
           "invalid commit id %S (want 1-64 chars of [A-Za-z0-9._-])" commit)
  in
  let* () = check_points commit points in
  let points = List.sort (fun a b -> compare a.name b.name) points in
  let row = { commit; points } in
  if List.exists (fun r -> r.commit = commit) t.rows then
    Ok
      { t with
        rows = List.map (fun r -> if r.commit = commit then row else r) t.rows }
  else Ok { t with rows = t.rows @ [ row ] }

let find t commit = List.find_opt (fun r -> r.commit = commit) t.rows

let series t name =
  List.filter_map
    (fun r ->
      List.find_opt (fun p -> p.name = name) r.points
      |> Option.map (fun p -> (r.commit, p.value)))
    t.rows

let validate t =
  let ( let* ) r f = Result.bind r f in
  let* () =
    if t.version = schema_version then Ok ()
    else
      Error
        (Printf.sprintf "unsupported schema version %d (expected %d)" t.version
           schema_version)
  in
  let seen = Hashtbl.create 16 in
  List.fold_left
    (fun acc r ->
      let* () = acc in
      let* () =
        if valid_commit r.commit then Ok ()
        else Error (Printf.sprintf "invalid commit id %S" r.commit)
      in
      let* () =
        if Hashtbl.mem seen r.commit then
          Error (Printf.sprintf "duplicate commit %s" r.commit)
        else begin
          Hashtbl.add seen r.commit ();
          Ok ()
        end
      in
      check_points r.commit r.points)
    (Ok ()) t.rows

let to_json t =
  Json.Obj
    [
      ("schema", Json.Str schema_name);
      ("version", Json.Num (float_of_int t.version));
      ( "rows",
        Json.Arr
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("commit", Json.Str r.commit);
                   ( "points",
                     Json.Arr
                       (List.map
                          (fun p ->
                            Json.Obj
                              [
                                ("name", Json.Str p.name);
                                ("value", Json.Num p.value);
                                ("unit", Json.Str p.unit_);
                              ])
                          r.points) );
                 ])
             t.rows) );
    ]

let of_json j =
  match
    let open Json in
    let schema = field "schema" str j in
    if schema <> schema_name then fail "not a %s file (schema %S)" schema_name schema;
    let point p =
      {
        name = field "name" str p;
        value = field "value" num p;
        unit_ = field "unit" str p;
      }
    in
    let row r =
      { commit = field "commit" str r; points = field "points" (list point) r }
    in
    { version = field "version" int j; rows = field "rows" (list row) j }
  with
  | t -> Result.map (fun () -> t) (validate t)
  | exception Json.Parse msg -> Error msg

let parse_string contents = Result.join (Json.decode of_json contents)

let load path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | contents -> (
    match parse_string contents with
    | Ok t -> Ok t
    | Error msg -> Error (Printf.sprintf "%s: %s" path msg))

let save path t =
  Json.write_atomic path (fun oc ->
      output_string oc (Json.to_string (to_json t));
      output_char oc '\n')

(* -- manifest distillation ----------------------------------------------- *)

let metrics_of_manifest (m : Bench_schema.t) =
  let points = ref [] in
  let add name value unit_ = points := { name; value; unit_ } :: !points in
  (* geometric mean of the per-app tracegen throughputs: the suite-level
     "how fast is trace generation" number, robust to one app dominating *)
  let tracegen =
    List.filter_map
      (fun (mm : Bench_schema.metric) ->
        if mm.Bench_schema.name = "tracegen_elems_per_sec.inter"
           && mm.Bench_schema.value > 0.
        then Some mm.Bench_schema.value
        else None)
      m.Bench_schema.metrics
  in
  (match tracegen with
  | [] -> ()
  | vs ->
    let lnsum = List.fold_left (fun acc v -> acc +. log v) 0. vs in
    add "tracegen_elems_per_sec"
      (exp (lnsum /. float_of_int (List.length vs)))
      "elem/s");
  let value_of app name =
    List.find_opt
      (fun (mm : Bench_schema.metric) ->
        mm.Bench_schema.app = app && mm.Bench_schema.name = name)
      m.Bench_schema.metrics
    |> Option.map (fun (mm : Bench_schema.metric) -> mm.Bench_schema.value)
  in
  Option.iter (fun v -> add "suite_wall_s" v "s") (value_of "_suite" "suite_wall_s.seq");
  Option.iter (fun v -> add "modeled_rps" v "req/s") (value_of "_traffic" "modeled_rps");
  Option.iter (fun v -> add "slo_burn_rate" v "x") (value_of "_slo" "fleet_burn_rate");
  Option.iter
    (fun v -> add "overload_goodput_rps" v "req/s")
    (value_of "_overload" "goodput_rps");
  List.rev !points

(* -- trend page ----------------------------------------------------------

   Design notes (and the constraints they satisfy):
   - five metrics of different scales -> small multiples, one single-series
     chart each, never a dual axis;
   - colors assigned in the palette's fixed categorical order (slots 1-5),
     validated for both modes; panels are separate plots, so slot adjacency
     never shares an axis;
   - identity is never color-alone: each panel's title names its series and
     the last point carries a direct value label; the full history is also
     a table (which doubles as the relief for the two light-mode slots
     below 3:1 contrast);
   - no JavaScript: hover detail comes from native SVG <title> tooltips;
   - dark mode is selected (the palette's dark steps), not a filter. *)

let series_specs =
  [
    ("tracegen_elems_per_sec", "Tracegen throughput", "elem/s", "s1");
    ("suite_wall_s", "Bench suite wall time", "s", "s2");
    ("modeled_rps", "Traffic engine modeled RPS", "req/s", "s3");
    ("slo_burn_rate", "Fleet SLO burn rate", "x", "s4");
    ("overload_goodput_rps", "Overload goodput under storm", "req/s", "s5");
  ]

let html_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string b "&amp;"
      | '<' -> Buffer.add_string b "&lt;"
      | '>' -> Buffer.add_string b "&gt;"
      | '"' -> Buffer.add_string b "&quot;"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let short_commit c = if String.length c <= 10 then c else String.sub c 0 10

(* fixed-precision human rendering; deterministic (no locale, no %g
   exponent surprises in the magnitudes we chart) *)
let fmt_value v =
  let scaled, suffix =
    let a = Float.abs v in
    if a >= 1e9 then (v /. 1e9, "G")
    else if a >= 1e6 then (v /. 1e6, "M")
    else if a >= 1e3 then (v /. 1e3, "k")
    else (v, "")
  in
  let a = Float.abs scaled in
  let body =
    if a >= 100. then Printf.sprintf "%.0f" scaled
    else if a >= 10. then Printf.sprintf "%.1f" scaled
    else if a >= 1. then Printf.sprintf "%.2f" scaled
    else Printf.sprintf "%.3f" scaled
  in
  body ^ suffix

(* largest 1/2/5 x 10^k step that yields <= 5 ticks over [0, hi] *)
let nice_step hi =
  if hi <= 0. then 1.
  else begin
    let raw = hi /. 4. in
    let mag = 10. ** Float.of_int (int_of_float (Float.floor (Float.log10 raw))) in
    let n = raw /. mag in
    let m = if n <= 1. then 1. else if n <= 2. then 2. else if n <= 5. then 5. else 10. in
    m *. mag
  end

let f2 v = Printf.sprintf "%.2f" v

(* one panel: x = row index over the whole history, y = [0, nice max];
   rows lacking the series break the polyline into gap-separated runs *)
let chart b ~title ~unit ~cls ~commits ~values =
  let w = 640. and h = 230. in
  let ml = 62. and mr = 18. and mt = 14. and mb = 34. in
  let iw = w -. ml -. mr and ih = h -. mt -. mb in
  let n = Array.length commits in
  let vmax =
    Array.fold_left
      (fun acc v -> match v with Some v -> Float.max acc v | None -> acc)
      0. values
  in
  let step = nice_step vmax in
  let ticks = int_of_float (Float.ceil (Float.max 1. (vmax /. step))) in
  let ymax = step *. float_of_int ticks in
  let x i =
    if n <= 1 then ml +. (iw /. 2.)
    else ml +. (iw *. float_of_int i /. float_of_int (n - 1))
  in
  let y v = mt +. ih -. (ih *. v /. ymax) in
  Buffer.add_string b
    (Printf.sprintf
       "<figure class=\"panel\"><figcaption>%s <span class=\"unit\">(%s)</span></figcaption>\n"
       (html_escape title) (html_escape unit));
  Buffer.add_string b
    (Printf.sprintf
       "<svg viewBox=\"0 0 %.0f %.0f\" role=\"img\" aria-label=\"%s per commit\">\n"
       w h (html_escape title));
  (* recessive grid + y tick labels *)
  for t = 0 to ticks do
    let v = step *. float_of_int t in
    let yy = y v in
    Buffer.add_string b
      (Printf.sprintf
         "<line class=\"grid\" x1=\"%s\" y1=\"%s\" x2=\"%s\" y2=\"%s\"/>\n"
         (f2 ml) (f2 yy) (f2 (w -. mr)) (f2 yy));
    Buffer.add_string b
      (Printf.sprintf
         "<text class=\"tick\" x=\"%s\" y=\"%s\" text-anchor=\"end\">%s</text>\n"
         (f2 (ml -. 8.)) (f2 (yy +. 4.)) (fmt_value v))
  done;
  (* x tick labels: first, last, and every k-th in between *)
  let every = max 1 ((n + 5) / 6) in
  Array.iteri
    (fun i c ->
      if i = 0 || i = n - 1 || i mod every = 0 then
        Buffer.add_string b
          (Printf.sprintf
             "<text class=\"tick\" x=\"%s\" y=\"%s\" text-anchor=\"middle\">%s</text>\n"
             (f2 (x i)) (f2 (h -. 10.)) (html_escape (short_commit c))))
    commits;
  (* gap-separated polyline runs *)
  let run = ref [] in
  let flush_run () =
    (match !run with
    | [] | [ _ ] -> ()
    | pts ->
      let pts = List.rev pts in
      Buffer.add_string b
        (Printf.sprintf "<polyline class=\"line %s\" points=\"%s\"/>\n" cls
           (String.concat " "
              (List.map (fun (px, py) -> Printf.sprintf "%s,%s" (f2 px) (f2 py)) pts))));
    run := []
  in
  Array.iteri
    (fun i v ->
      match v with
      | None -> flush_run ()
      | Some v -> run := (x i, y v) :: !run)
    values;
  flush_run ();
  (* markers with native tooltips; the last sample gets a direct label *)
  let last =
    let r = ref (-1) in
    Array.iteri (fun i v -> if v <> None then r := i) values;
    !r
  in
  Array.iteri
    (fun i v ->
      match v with
      | None -> ()
      | Some v ->
        Buffer.add_string b
          (Printf.sprintf
             "<circle class=\"dot %s\" cx=\"%s\" cy=\"%s\" r=\"4\"><title>%s: %s %s</title></circle>\n"
             cls (f2 (x i)) (f2 (y v))
             (html_escape commits.(i))
             (fmt_value v) (html_escape unit));
        if i = last then begin
          let anchor = if x i > w -. mr -. 70. then "end" else "start" in
          let dx = if anchor = "end" then -8. else 8. in
          Buffer.add_string b
            (Printf.sprintf
               "<text class=\"label\" x=\"%s\" y=\"%s\" text-anchor=\"%s\">%s</text>\n"
               (f2 (x i +. dx)) (f2 (y v -. 8.)) anchor (fmt_value v))
        end)
    values;
  Buffer.add_string b "</svg></figure>\n"

let style =
  {css|
:root { color-scheme: light dark; }
body {
  margin: 2rem auto; max-width: 72rem; padding: 0 1rem;
  font: 14px/1.5 system-ui, sans-serif;
  background: #fcfcfb; color: #0b0b0b;
}
h1 { font-size: 1.3rem; }
.sub { color: #52514e; margin-bottom: 1.5rem; }
.panels { display: grid; grid-template-columns: repeat(auto-fit, minmax(20rem, 1fr)); gap: 1.5rem; }
.panel { margin: 0; }
.panel figcaption { font-weight: 600; margin-bottom: .25rem; }
.panel .unit { color: #52514e; font-weight: 400; }
svg { width: 100%; height: auto; }
.grid { stroke: #e7e6e2; stroke-width: 1; }
.tick, .label { font: 11px system-ui, sans-serif; fill: #52514e; }
.label { font-weight: 600; fill: #0b0b0b; }
.line { fill: none; stroke-width: 2; }
.dot { stroke: #fcfcfb; stroke-width: 2; }
.line.s1 { stroke: #2a78d6; } .dot.s1 { fill: #2a78d6; }
.line.s2 { stroke: #eb6834; } .dot.s2 { fill: #eb6834; }
.line.s3 { stroke: #1baf7a; } .dot.s3 { fill: #1baf7a; }
.line.s4 { stroke: #eda100; } .dot.s4 { fill: #eda100; }
.line.s5 { stroke: #8a5cd6; } .dot.s5 { fill: #8a5cd6; }
table { border-collapse: collapse; margin-top: 2rem; }
th, td { text-align: right; padding: .3rem .8rem; border-bottom: 1px solid #e7e6e2; }
th:first-child, td:first-child { text-align: left; font-family: ui-monospace, monospace; }
thead th { color: #52514e; font-weight: 600; }
@media (prefers-color-scheme: dark) {
  body { background: #1a1a19; color: #ffffff; }
  .sub, .panel .unit, thead th { color: #c3c2b7; }
  .grid { stroke: #383835; }
  .tick { fill: #c3c2b7; }
  .label { fill: #ffffff; }
  .dot { stroke: #1a1a19; }
  .line.s1 { stroke: #3987e5; } .dot.s1 { fill: #3987e5; }
  .line.s2 { stroke: #d95926; } .dot.s2 { fill: #d95926; }
  .line.s3 { stroke: #199e70; } .dot.s3 { fill: #199e70; }
  .line.s4 { stroke: #c98500; } .dot.s4 { fill: #c98500; }
  .line.s5 { stroke: #9a70e0; } .dot.s5 { fill: #9a70e0; }
  th, td { border-bottom-color: #383835; }
}
|css}

let render_page t =
  let b = Buffer.create 8192 in
  Buffer.add_string b
    "<!doctype html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n\
     <meta name=\"viewport\" content=\"width=device-width, initial-scale=1\">\n\
     <title>flopt bench trajectory</title>\n<style>";
  Buffer.add_string b style;
  Buffer.add_string b "</style>\n</head>\n<body>\n";
  Buffer.add_string b "<h1>flopt bench trajectory</h1>\n";
  Buffer.add_string b
    (Printf.sprintf "<p class=\"sub\">%d commit%s recorded, oldest first.</p>\n"
       (List.length t.rows)
       (if List.length t.rows = 1 then "" else "s"));
  let commits = Array.of_list (List.map (fun r -> r.commit) t.rows) in
  Buffer.add_string b "<div class=\"panels\">\n";
  List.iter
    (fun (name, title, unit, cls) ->
      let values =
        Array.of_list
          (List.map
             (fun r ->
               List.find_opt (fun p -> p.name = name) r.points
               |> Option.map (fun p -> p.value))
             t.rows)
      in
      if Array.exists (fun v -> v <> None) values then
        chart b ~title ~unit ~cls ~commits ~values)
    series_specs;
  Buffer.add_string b "</div>\n";
  (* table view: every row, every charted series *)
  let shown =
    List.filter
      (fun (name, _, _, _) ->
        List.exists (fun r -> List.exists (fun p -> p.name = name) r.points) t.rows)
      series_specs
  in
  if t.rows <> [] && shown <> [] then begin
    Buffer.add_string b "<table>\n<thead><tr><th>commit</th>";
    List.iter
      (fun (_, title, unit, _) ->
        Buffer.add_string b
          (Printf.sprintf "<th>%s (%s)</th>" (html_escape title) (html_escape unit)))
      shown;
    Buffer.add_string b "</tr></thead>\n<tbody>\n";
    List.iter
      (fun r ->
        Buffer.add_string b
          (Printf.sprintf "<tr><td>%s</td>" (html_escape r.commit));
        List.iter
          (fun (name, _, _, _) ->
            match List.find_opt (fun p -> p.name = name) r.points with
            | Some p -> Buffer.add_string b (Printf.sprintf "<td>%s</td>" (fmt_value p.value))
            | None -> Buffer.add_string b "<td>&mdash;</td>")
          shown;
        Buffer.add_string b "</tr>\n")
      t.rows;
    Buffer.add_string b "</tbody>\n</table>\n"
  end;
  Buffer.add_string b "</body>\n</html>\n";
  Buffer.contents b
