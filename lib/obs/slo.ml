(* SLO specs and multi-window / multi-burn-rate evaluation.

   The central reduction: "the pQ latency stays under C" holds for a window
   exactly when at most (1 - Q) of its requests exceed C, and "the error
   rate stays under E" when at most E of its requests fail — so both
   objective kinds score a window from the same {total; breaching} pair and
   no quantile estimation is needed.  All arithmetic is pure, so a verdict
   is byte-identical wherever the per-window counts are. *)

type objective =
  | Latency of { quantile : float; threshold_us : float }
  | Error_rate of { max_rate : float }

type spec = { objective : objective; target : float }

(* ---- spec grammar ---------------------------------------------------- *)

let is_digit c = c >= '0' && c <= '9'

let float_prefix s =
  (* longest numeric prefix (digits, one optional dot) and the rest *)
  let n = String.length s in
  let i = ref 0 in
  let dot = ref false in
  while !i < n && (is_digit s.[!i] || (s.[!i] = '.' && not !dot)) do
    if s.[!i] = '.' then dot := true;
    incr i
  done;
  if !i = 0 then None
  else
    match float_of_string_opt (String.sub s 0 !i) with
    | Some v -> Some (v, String.sub s !i (n - !i))
    | None -> None

let parse_target s =
  (* "@99.9" -> 0.999 *)
  match float_prefix s with
  | Some (pct, "") when pct > 0. && pct < 100. -> Ok (pct /. 100.)
  | Some (_, "") -> Error "target must be a percentage strictly between 0 and 100"
  | _ -> Error "target must be a number (e.g. @99.9)"

let split_on_at s =
  match String.index_opt s '@' with
  | None -> Error "missing '@TARGET' (e.g. p99<800us@99.9)"
  | Some i ->
    Ok (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let parse_latency body =
  (* "p99<800us" (after the leading 'p' is stripped) *)
  let ( let* ) = Result.bind in
  let* q_str, rest =
    match String.index_opt body '<' with
    | Some i ->
      Ok (String.sub body 0 i, String.sub body (i + 1) (String.length body - i - 1))
    | None -> Error "latency objective needs '<' (e.g. p99<800us)"
  in
  let* quantile =
    match float_of_string_opt q_str with
    | Some p when p > 0. && p < 100. -> Ok (p /. 100.)
    | _ -> Error "quantile must be strictly between 0 and 100 (e.g. p99)"
  in
  let* threshold_us =
    match float_prefix rest with
    | Some (v, unit_) when v > 0. -> (
      match unit_ with
      | "us" -> Ok v
      | "ms" -> Ok (v *. 1e3)
      | "s" -> Ok (v *. 1e6)
      | _ -> Error "latency unit must be us, ms or s")
    | _ -> Error "threshold must be a positive number with a unit (e.g. 800us)"
  in
  Ok (Latency { quantile; threshold_us })

let parse_error_rate body =
  (* "<0.5%" (after "err" is stripped) *)
  let ( let* ) = Result.bind in
  let* rest =
    if String.length body > 0 && body.[0] = '<' then
      Ok (String.sub body 1 (String.length body - 1))
    else Error "error objective needs '<' (e.g. err<0.5%)"
  in
  let* max_rate =
    match float_prefix rest with
    | Some (v, "%") when v >= 0. && v < 100. -> Ok (v /. 100.)
    | Some (_, "%") -> Error "error rate must be in [0, 100)%"
    | _ -> Error "error rate must be a percentage (e.g. 0.5%)"
  in
  Ok (Error_rate { max_rate })

let parse s =
  let ( let* ) = Result.bind in
  let s = String.trim s in
  let* obj_str, target_str = split_on_at s in
  let* target = parse_target target_str in
  let* objective =
    if String.length obj_str >= 3 && String.sub obj_str 0 3 = "err" then
      parse_error_rate (String.sub obj_str 3 (String.length obj_str - 3))
    else if String.length obj_str >= 1 && obj_str.[0] = 'p' then
      parse_latency (String.sub obj_str 1 (String.length obj_str - 1))
    else Error "objective must start with 'p' (latency) or 'err' (error rate)"
  in
  Ok { objective; target }

let num v =
  (* shortest spelling that round-trips through the grammar *)
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let to_string spec =
  let target = num (spec.target *. 100.) in
  match spec.objective with
  | Latency { quantile; threshold_us } ->
    Printf.sprintf "p%s<%sus@%s" (num (quantile *. 100.)) (num threshold_us) target
  | Error_rate { max_rate } ->
    Printf.sprintf "err<%s%%@%s" (num (max_rate *. 100.)) target

(* ---- window scoring --------------------------------------------------- *)

type sample = { total : int; breaching : int }

let allowed_fraction spec =
  match spec.objective with
  | Latency { quantile; _ } -> 1. -. quantile
  | Error_rate { max_rate } -> max_rate

let good spec s =
  if s.total = 0 then true
  else
    float_of_int s.breaching /. float_of_int s.total <= allowed_fraction spec

type verdict = {
  spec : spec;
  windows : int;
  good_windows : int;
  bad_windows : int;
  bad_flags : bool array;
  compliance : float;
  budget_windows : float;
  budget_consumed : float;
  budget_remaining : float;
  burn_rate : float;
  fast_pages : int;
  slow_tickets : int;
  compliant : bool;
}

(* alert at window i iff the window is bad and the trailing [span] windows
   consumed at least [frac] of the whole period's budget *)
let count_alerts ~bad_flags ~span ~frac ~budget_windows =
  let n = Array.length bad_flags in
  let threshold = frac *. budget_windows in
  let fired = ref 0 in
  let in_span = ref 0 in
  for i = 0 to n - 1 do
    if bad_flags.(i) then incr in_span;
    if i >= span && bad_flags.(i - span) then decr in_span;
    if bad_flags.(i) && float_of_int !in_span >= threshold then incr fired
  done;
  !fired

let evaluate spec samples =
  Array.iter
    (fun s ->
      if s.total < 0 || s.breaching < 0 || s.breaching > s.total then
        invalid_arg "Slo.evaluate: sample counts must satisfy 0 <= breaching <= total")
    samples;
  let windows = Array.length samples in
  let fast_span = 1 and slow_span = max 1 (windows / 4) in
  let bad_flags = Array.map (fun s -> not (good spec s)) samples in
  let bad_windows = Array.fold_left (fun a b -> if b then a + 1 else a) 0 bad_flags in
  let good_windows = windows - bad_windows in
  let compliance =
    if windows = 0 then 1. else float_of_int good_windows /. float_of_int windows
  in
  let budget_windows = (1. -. spec.target) *. float_of_int windows in
  let budget_consumed =
    if bad_windows = 0 then 0.
    else if budget_windows <= 0. then infinity
    else float_of_int bad_windows /. budget_windows
  in
  let burn_rate =
    if windows = 0 then 0.
    else
      let bad_rate = float_of_int bad_windows /. float_of_int windows in
      if bad_rate = 0. then 0.
      else if spec.target >= 1. then infinity
      else bad_rate /. (1. -. spec.target)
  in
  {
    spec;
    windows;
    good_windows;
    bad_windows;
    bad_flags;
    compliance;
    budget_windows;
    budget_consumed;
    budget_remaining = Float.max 0. (1. -. budget_consumed);
    burn_rate;
    fast_pages = count_alerts ~bad_flags ~span:fast_span ~frac:0.05 ~budget_windows;
    slow_tickets = count_alerts ~bad_flags ~span:slow_span ~frac:0.01 ~budget_windows;
    compliant = compliance >= spec.target;
  }
