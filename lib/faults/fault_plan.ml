type spec =
  | Read_error of { node : int option; rate : float }
  | Latency_spike of { node : int option; rate : float; multiplier : float }
  | Degraded of { node : int option; multiplier : float }
  | Cache_offline of { node : int }
  | Stripe_failover of { node : int; target : int option }

type t = { seed : int; retry : Retry.policy; specs : spec list }

let empty = { seed = 0; retry = Retry.default; specs = [] }
let is_empty t = t.specs = []
let with_seed t seed = { t with seed }

let scale t s =
  if not (Float.is_finite s && s >= 0.) then
    invalid_arg
      (Printf.sprintf "Fault_plan.scale: scale must be finite and non-negative (got %g)" s);
  if s = 0. then { t with specs = [] }
  else
    let clamp r = Float.min 1. (r *. s) in
    let specs =
      List.map
        (function
          | Read_error r -> Read_error { r with rate = clamp r.rate }
          | Latency_spike l -> Latency_spike { l with rate = clamp l.rate }
          | Degraded d -> Degraded { d with multiplier = 1. +. ((d.multiplier -. 1.) *. s) }
          | (Cache_offline _ | Stripe_failover _) as x -> x)
        t.specs
    in
    { t with specs }

let fstr = Printf.sprintf "%.12g"

let spec_to_string = function
  | Read_error { node; rate } ->
    Printf.sprintf "read-error:rate=%s%s" (fstr rate)
      (match node with Some n -> Printf.sprintf ",node=%d" n | None -> "")
  | Latency_spike { node; rate; multiplier } ->
    Printf.sprintf "latency:rate=%s,mult=%s%s" (fstr rate) (fstr multiplier)
      (match node with Some n -> Printf.sprintf ",node=%d" n | None -> "")
  | Degraded { node; multiplier } ->
    Printf.sprintf "degrade:mult=%s%s" (fstr multiplier)
      (match node with Some n -> Printf.sprintf ",node=%d" n | None -> "")
  | Cache_offline { node } -> Printf.sprintf "cache-off:node=%d" node
  | Stripe_failover { node; target } ->
    Printf.sprintf "failover:node=%d%s" node
      (match target with Some n -> Printf.sprintf ",to=%d" n | None -> "")

let to_string t =
  String.concat ";" (List.map spec_to_string t.specs @ [ Retry.to_string t.retry ])

(* --- parsing --------------------------------------------------------- *)

let ( let* ) = Result.bind

let parse_params s =
  (* "k1=v1,k2=v2" -> assoc list; duplicate keys rejected *)
  let parts = String.split_on_char ',' s |> List.map String.trim in
  List.fold_left
    (fun acc part ->
      let* acc = acc in
      match String.index_opt part '=' with
      | None -> Error (Printf.sprintf "expected key=value, got %S" part)
      | Some i ->
        let k = String.trim (String.sub part 0 i) in
        let v = String.trim (String.sub part (i + 1) (String.length part - i - 1)) in
        if List.mem_assoc k acc then Error (Printf.sprintf "duplicate key %S" k)
        else Ok ((k, v) :: acc))
    (Ok []) parts

let check_keys ~clause ~allowed params =
  List.fold_left
    (fun acc (k, _) ->
      let* () = acc in
      if List.mem k allowed then Ok ()
      else Error (Printf.sprintf "%s: unknown key %S (allowed: %s)" clause k
                    (String.concat ", " allowed)))
    (Ok ()) params

let float_param ~clause params key =
  match List.assoc_opt key params with
  | None -> Error (Printf.sprintf "%s: missing %s=" clause key)
  | Some v -> (
    match float_of_string_opt v with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "%s: %s=%S is not a number" clause key v))

let node_param ~clause params key =
  match List.assoc_opt key params with
  | None -> Ok None
  | Some v -> (
    match int_of_string_opt v with
    | Some n when n >= 0 -> Ok (Some n)
    | _ -> Error (Printf.sprintf "%s: %s=%S is not a non-negative integer" clause key v))

let rate_param ~clause params =
  let* r = float_param ~clause params "rate" in
  if r >= 0. && r <= 1. then Ok r
  else Error (Printf.sprintf "%s: rate must be in [0, 1] (got %g)" clause r)

let mult_param ~clause params =
  let* m = float_param ~clause params "mult" in
  if m >= 1. then Ok m else Error (Printf.sprintf "%s: mult must be >= 1 (got %g)" clause m)

let parse_clause acc clause =
  let kind, params_s =
    match String.index_opt clause ':' with
    | None -> (clause, "")
    | Some i ->
      (String.sub clause 0 i, String.sub clause (i + 1) (String.length clause - i - 1))
  in
  let kind = String.trim kind in
  let* params = if params_s = "" then Ok [] else parse_params params_s in
  let retry, specs = acc in
  match kind with
  | "read-error" ->
    let* () = check_keys ~clause:kind ~allowed:[ "rate"; "node" ] params in
    let* rate = rate_param ~clause:kind params in
    let* node = node_param ~clause:kind params "node" in
    Ok (retry, Read_error { node; rate } :: specs)
  | "latency" ->
    let* () = check_keys ~clause:kind ~allowed:[ "rate"; "mult"; "node" ] params in
    let* rate = rate_param ~clause:kind params in
    let* multiplier = mult_param ~clause:kind params in
    let* node = node_param ~clause:kind params "node" in
    Ok (retry, Latency_spike { node; rate; multiplier } :: specs)
  | "degrade" ->
    let* () = check_keys ~clause:kind ~allowed:[ "mult"; "node" ] params in
    let* multiplier = mult_param ~clause:kind params in
    let* node = node_param ~clause:kind params "node" in
    Ok (retry, Degraded { node; multiplier } :: specs)
  | "cache-off" ->
    let* () = check_keys ~clause:kind ~allowed:[ "node" ] params in
    let* node = node_param ~clause:kind params "node" in
    (match node with
    | Some node -> Ok (retry, Cache_offline { node } :: specs)
    | None -> Error "cache-off: missing node=")
  | "failover" ->
    let* () = check_keys ~clause:kind ~allowed:[ "node"; "to" ] params in
    let* node = node_param ~clause:kind params "node" in
    let* target = node_param ~clause:kind params "to" in
    (match node with
    | Some node -> Ok (retry, Stripe_failover { node; target } :: specs)
    | None -> Error "failover: missing node=")
  | "retry" ->
    let* () =
      check_keys ~clause:kind ~allowed:[ "max"; "base"; "mult"; "jitter"; "timeout" ] params
    in
    let opt_float key default =
      match List.assoc_opt key params with
      | None -> Ok default
      | Some v -> (
        match float_of_string_opt v with
        | Some f -> Ok f
        | None -> Error (Printf.sprintf "retry: %s=%S is not a number" key v))
    in
    let* max_retries =
      match List.assoc_opt "max" params with
      | None -> Ok retry.Retry.max_retries
      | Some v -> (
        match int_of_string_opt v with
        | Some n -> Ok n
        | None -> Error (Printf.sprintf "retry: max=%S is not an integer" v))
    in
    let* base_backoff_us = opt_float "base" retry.Retry.base_backoff_us in
    let* multiplier = opt_float "mult" retry.Retry.multiplier in
    let* jitter = opt_float "jitter" retry.Retry.jitter in
    let* timeout_us = opt_float "timeout" retry.Retry.timeout_us in
    let retry = { Retry.max_retries; base_backoff_us; multiplier; jitter; timeout_us } in
    let* () = Retry.validate retry in
    Ok (retry, specs)
  | "" -> Ok acc (* tolerate empty clauses: trailing/duplicated ';' *)
  | k -> Error (Printf.sprintf "unknown fault clause %S" k)

let of_string s =
  let clauses = String.split_on_char ';' s |> List.map String.trim in
  let* retry, specs_rev =
    List.fold_left
      (fun acc clause ->
        let* acc = acc in
        parse_clause acc clause)
      (Ok (Retry.default, []))
      clauses
  in
  Ok { seed = 0; retry; specs = List.rev specs_rev }
