(* Machine-readable benchmark trajectory: a versioned JSON manifest of the
   numbers one `bench -- json` invocation produced, plus the diff/gating
   logic `flopt bench-diff` applies between two manifests. *)

module Json = Flo_obs.Json

let schema_name = "flopt-bench"
let schema_version = 1

type metric = {
  app : string;
  name : string;
  value : float;
  unit_ : string;
  gated : bool;
}

type t = {
  version : int;
  apps : string list;
  sample : int;
  block_elems : int;
  threads : int;
  metrics : metric list;
}

let make ~apps ~sample ~block_elems ~threads metrics =
  { version = schema_version; apps; sample; block_elems; threads; metrics }

let metric_key m = (m.app, m.name)

let validate t =
  let ( let* ) r f = Result.bind r f in
  let* () =
    if t.version = schema_version then Ok ()
    else
      Error
        (Printf.sprintf "unsupported schema version %d (expected %d)" t.version
           schema_version)
  in
  let* () = if t.apps = [] then Error "no apps recorded" else Ok () in
  let* () =
    if t.sample >= 1 && t.block_elems >= 1 && t.threads >= 1 then Ok ()
    else Error "non-positive config field"
  in
  let* () =
    match List.find_opt (fun m -> Float.is_nan m.value) t.metrics with
    | Some m -> Error (Printf.sprintf "metric %s/%s is NaN" m.app m.name)
    | None -> Ok ()
  in
  let seen = Hashtbl.create 64 in
  let rec dups = function
    | [] -> Ok ()
    | m :: rest ->
      if Hashtbl.mem seen (metric_key m) then
        Error (Printf.sprintf "duplicate metric %s/%s" m.app m.name)
      else begin
        Hashtbl.add seen (metric_key m) ();
        dups rest
      end
  in
  dups t.metrics

let to_json t =
  Json.Obj
    [
      ("schema", Json.Str schema_name);
      ("version", Json.Num (float_of_int t.version));
      ( "config",
        Json.Obj
          [
            ("apps", Json.Arr (List.map (fun a -> Json.Str a) t.apps));
            ("sample", Json.Num (float_of_int t.sample));
            ("block_elems", Json.Num (float_of_int t.block_elems));
            ("threads", Json.Num (float_of_int t.threads));
          ] );
      ( "metrics",
        Json.Arr
          (List.map
             (fun m ->
               Json.Obj
                 [
                   ("app", Json.Str m.app);
                   ("name", Json.Str m.name);
                   ("value", Json.Num m.value);
                   ("unit", Json.Str m.unit_);
                   ("gated", Json.Bool m.gated);
                 ])
             t.metrics) );
    ]

let of_json j =
  match
    let open Json in
    let schema = field "schema" str j in
    if schema <> schema_name then
      fail "not a %s manifest (schema %S)" schema_name schema;
    let config = field "config" Fun.id j in
    let metric m =
      {
        app = field "app" str m;
        name = field "name" str m;
        value = field "value" num m;
        unit_ = field "unit" str m;
        gated = field "gated" bool m;
      }
    in
    {
      version = field "version" int j;
      apps = field "apps" (list str) config;
      sample = field "sample" int config;
      block_elems = field "block_elems" int config;
      threads = field "threads" int config;
      metrics = field "metrics" (list metric) j;
    }
  with
  | t -> Result.map (fun () -> t) (validate t)
  | exception Json.Parse msg -> Error msg

let save path t =
  Json.write_atomic path (fun oc ->
      output_string oc (Json.to_string (to_json t));
      output_char oc '\n')

(* Total: the parser's depth cap plus [of_json]'s field checks mean any
   byte string — truncated, binary, deeply nested — lands in [Error]. *)
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

(* -- trajectory diffing -------------------------------------------------- *)

type change = {
  c_app : string;
  c_name : string;
  c_unit : string;
  c_gated : bool;
  old_value : float;
  new_value : float;
  delta_pct : float;
}

type diff = { changes : change list; added : metric list; removed : metric list }

(* every recorded metric is a cost (time, misses, sharing, drift): higher is
   worse, so the sign of delta_pct is the direction of the regression *)
let delta_pct ~old_value ~new_value =
  if old_value = 0. then (if new_value = 0. then 0. else infinity)
  else (new_value -. old_value) /. old_value *. 100.

let diff ~old_ ~new_ =
  let old_tbl = Hashtbl.create 64 in
  List.iter (fun m -> Hashtbl.replace old_tbl (metric_key m) m) old_.metrics;
  let changes, added =
    List.fold_left
      (fun (changes, added) m ->
        match Hashtbl.find_opt old_tbl (metric_key m) with
        | None -> (changes, m :: added)
        | Some o ->
          Hashtbl.remove old_tbl (metric_key m);
          ( {
              c_app = m.app;
              c_name = m.name;
              c_unit = m.unit_;
              c_gated = m.gated;
              old_value = o.value;
              new_value = m.value;
              delta_pct = delta_pct ~old_value:o.value ~new_value:m.value;
            }
            :: changes,
            added ))
      ([], []) new_.metrics
  in
  let removed =
    List.filter (fun m -> Hashtbl.mem old_tbl (metric_key m)) old_.metrics
  in
  { changes = List.rev changes; added = List.rev added; removed }

let regressions ?(threshold = 0.) d =
  List.filter (fun c -> c.c_gated && c.delta_pct > threshold) d.changes

(* a gated metric that vanished cannot be shown not to have regressed *)
let missing_gated d = List.filter (fun m -> m.gated) d.removed

let improvements ?(threshold = 0.) d =
  List.filter (fun c -> c.c_gated && c.delta_pct < -.threshold) d.changes
