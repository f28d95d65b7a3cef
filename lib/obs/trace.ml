type span = {
  name : string;
  start_us : float;
  dur_us : float;
  children : span list;
}

(* Shed sorts last so adding it never reorders pre-overload reason lists *)
type reason = Head | Breach | Fault_path | Window_max | Shed

type t = {
  trace_id : int64;
  tenant : int;
  app : string;
  window : int;
  shard : int;
  outcome : string;
  latency_us : float;
  count : int;
  reasons : reason list;
  root : span;
}

let span ?(children = []) ~name ~start_us ~dur_us () =
  { name; start_us; dur_us; children }

let make ~trace_id ~tenant ~app ~window ~shard ~outcome ~latency_us ~count ~reasons
    ~root =
  if reasons = [] then invalid_arg "Trace.make: empty reason list";
  if count < 1 then invalid_arg "Trace.make: count must be positive";
  let reasons = List.sort_uniq compare reasons in
  { trace_id; tenant; app; window; shard; outcome; latency_us; count; reasons; root }

let span_count t =
  let rec go s = List.fold_left (fun acc c -> acc + go c) 1 s.children in
  go t.root

(* the k-th span id of a trace: one counter step of the splitmix64 stream
   whose state is the trace id (trace ids themselves are Flo_faults.Prng.at
   draws) *)
let span_id ~trace_id k =
  if k < 0 then invalid_arg "Trace.span_id: negative index";
  Flo_faults.Prng.nth trace_id k

let id_to_string id =
  let b = Buffer.create 16 in
  Json.add_hex64 b id;
  Buffer.contents b

let id_of_string s =
  let hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
  if String.length s = 16 && String.for_all hex s then
    (* hex int64 literals parse modulo 2^64, which is exactly the unsigned
       round-trip of the %016Lx form *)
    Int64.of_string_opt ("0x" ^ s)
  else None

let reason_to_string = function
  | Head -> "head"
  | Breach -> "breach"
  | Fault_path -> "fault"
  | Window_max -> "window_max"
  | Shed -> "shed"

let reason_of_string = function
  | "head" -> Some Head
  | "breach" -> Some Breach
  | "fault" -> Some Fault_path
  | "window_max" -> Some Window_max
  | "shed" -> Some Shed
  | _ -> None

(* wire format: appended field by field, every number through the Json
   writers, so no trace pays for a Printf format interpretation *)

let add_quoted buf s =
  Buffer.add_char buf '"';
  Buffer.add_string buf (Json.escape s);
  Buffer.add_char buf '"'

let rec span_to_buf buf s =
  Buffer.add_string buf {|{"name":|};
  add_quoted buf s.name;
  Buffer.add_string buf {|,"t_us":|};
  Json.add_fixed3 buf s.start_us;
  Buffer.add_string buf {|,"dur_us":|};
  Json.add_fixed3 buf s.dur_us;
  (match s.children with
  | [] -> ()
  | children ->
    Buffer.add_string buf {|,"children":[|};
    List.iteri
      (fun i c ->
        if i > 0 then Buffer.add_char buf ',';
        span_to_buf buf c)
      children;
    Buffer.add_char buf ']');
  Buffer.add_char buf '}'

let to_buffer buf t =
  Buffer.add_string buf {|{"trace_id":"|};
  Json.add_hex64 buf t.trace_id;
  Buffer.add_string buf {|","tenant":|};
  Json.add_int buf t.tenant;
  Buffer.add_string buf {|,"app":|};
  add_quoted buf t.app;
  Buffer.add_string buf {|,"window":|};
  Json.add_int buf t.window;
  Buffer.add_string buf {|,"shard":|};
  Json.add_int buf t.shard;
  Buffer.add_string buf {|,"outcome":|};
  add_quoted buf t.outcome;
  Buffer.add_string buf {|,"lat_us":|};
  Json.add_fixed3 buf t.latency_us;
  Buffer.add_string buf {|,"count":|};
  Json.add_int buf t.count;
  Buffer.add_string buf {|,"reasons":[|};
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char buf ',';
      add_quoted buf (reason_to_string r))
    t.reasons;
  Buffer.add_string buf {|],"root":|};
  span_to_buf buf t.root;
  Buffer.add_char buf '}'

(* a mean trace encodes to ~480 bytes, so the buffer rarely grows *)
let to_json t =
  let buf = Buffer.create 512 in
  to_buffer buf t;
  Buffer.contents buf

let of_json line =
  let open Json in
  let rec span_of j =
    {
      name = field "name" str j;
      start_us = field "t_us" num j;
      dur_us = field "dur_us" num j;
      children = Option.value ~default:[] (field_opt "children" (list span_of) j);
    }
  in
  let trace j =
    let trace_id =
      let s = field "trace_id" str j in
      match id_of_string s with Some id -> id | None -> fail "malformed trace id %S" s
    in
    (* unknown reason names are a newer sampler's vocabulary — drop them *)
    let reasons = List.filter_map reason_of_string (field "reasons" (list str) j) in
    if reasons = [] then fail "no recognizable sampling reason";
    let count = field "count" int j in
    if count < 1 then fail "count must be positive";
    make ~trace_id ~tenant:(field "tenant" int j) ~app:(field "app" str j)
      ~window:(field "window" int j) ~shard:(field "shard" int j)
      ~outcome:(field "outcome" str j) ~latency_us:(field "lat_us" num j) ~count
      ~reasons ~root:(field "root" span_of j)
  in
  decode trace line

let pp ppf t =
  Format.fprintf ppf "%s tenant=%d app=%s window=%d shard=%d outcome=%s lat=%.1fus x%d [%s]"
    (id_to_string t.trace_id) t.tenant t.app t.window t.shard t.outcome t.latency_us
    t.count
    (String.concat "," (List.map reason_to_string t.reasons))

let pp_tree ppf t =
  pp ppf t;
  (* preorder numbering matches {!span_id}, so the rendered ids line up with
     the Perfetto exporter's slice args *)
  let next = ref 0 in
  let rec go prefix is_last s =
    let k = !next in
    incr next;
    Format.fprintf ppf "@\n%s%s %-24s @[%10.1fus %+12.1fus  %s@]" prefix
      (if is_last then "└──" else "├──")
      s.name s.start_us s.dur_us
      (id_to_string (span_id ~trace_id:t.trace_id k));
    let prefix = prefix ^ (if is_last then "    " else "│   ") in
    let rec children = function
      | [] -> ()
      | [ c ] -> go prefix true c
      | c :: rest ->
        go prefix false c;
        children rest
    in
    children s.children
  in
  go "" true t.root
