type counts = {
  faults : int;
  retries : int;
  timeouts : int;
  failovers : int;
  remaps : int;
  offline_misses : int;
  spikes : int;
}

type t = {
  plan : Fault_plan.t;
  storage_nodes : int;
  streams : Prng.t array;
  read_error_rate : float array;
  spike_rate : float array;
  spike_mult : float array;
  degraded_mult : float array;
  offline : bool array;
  route_to : int array;
  mutable c_faults : int;
  mutable c_retries : int;
  mutable c_timeouts : int;
  mutable c_failovers : int;
  mutable c_remaps : int;
  mutable c_offline_misses : int;
  mutable c_spikes : int;
}

let create ~storage_nodes (plan : Fault_plan.t) =
  if storage_nodes <= 0 then invalid_arg "Injector.create: storage_nodes must be positive";
  (match Retry.validate plan.Fault_plan.retry with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Injector.create: " ^ msg));
  let n = storage_nodes in
  let check clause = function
    | None -> ()
    | Some i ->
      if i < 0 || i >= n then
        invalid_arg
          (Printf.sprintf "Injector.create: %s names node %d, but there are %d storage nodes"
             clause i n)
  in
  let read_error_rate = Array.make n 0. in
  let spike_rate = Array.make n 0. in
  let spike_mult = Array.make n 1. in
  let degraded_mult = Array.make n 1. in
  let offline = Array.make n false in
  let route_to = Array.init n Fun.id in
  let each node f =
    match node with None -> for i = 0 to n - 1 do f i done | Some i -> f i
  in
  List.iter
    (function
      | Fault_plan.Read_error { node; rate } ->
        check "read-error" node;
        (* independent failure sources compose as probabilities *)
        each node (fun i ->
            read_error_rate.(i) <- 1. -. ((1. -. read_error_rate.(i)) *. (1. -. rate)))
      | Fault_plan.Latency_spike { node; rate; multiplier } ->
        check "latency" node;
        each node (fun i ->
            spike_rate.(i) <- rate;
            spike_mult.(i) <- multiplier)
      | Fault_plan.Degraded { node; multiplier } ->
        check "degrade" node;
        each node (fun i -> degraded_mult.(i) <- degraded_mult.(i) *. multiplier)
      | Fault_plan.Cache_offline { node } ->
        check "cache-off" (Some node);
        offline.(node) <- true
      | Fault_plan.Stripe_failover { node; target } ->
        check "failover" (Some node);
        check "failover" target;
        route_to.(node) <- (match target with Some t -> t | None -> (node + 1) mod n))
    plan.Fault_plan.specs;
  {
    plan;
    storage_nodes = n;
    streams = Array.init n (fun i -> Prng.for_stream ~seed:plan.Fault_plan.seed ~stream:i);
    read_error_rate;
    spike_rate;
    spike_mult;
    degraded_mult;
    offline;
    route_to;
    c_faults = 0;
    c_retries = 0;
    c_timeouts = 0;
    c_failovers = 0;
    c_remaps = 0;
    c_offline_misses = 0;
    c_spikes = 0;
  }

let plan t = t.plan
let retry_policy t = t.plan.Fault_plan.retry

let route t sn =
  let d = t.route_to.(sn) in
  if d <> sn then t.c_remaps <- t.c_remaps + 1;
  d

let cache_online t ~node = not t.offline.(node)

let draw_read_error t ~node =
  let r = t.read_error_rate.(node) in
  r > 0. && Prng.float t.streams.(node) < r

let service_multiplier t ~node =
  let m = t.degraded_mult.(node) in
  let r = t.spike_rate.(node) in
  if r > 0. && Prng.float t.streams.(node) < r then begin
    t.c_spikes <- t.c_spikes + 1;
    m *. t.spike_mult.(node)
  end
  else m

let backoff_us t ~node ~attempt =
  Retry.backoff_us t.plan.Fault_plan.retry ~attempt ~u:(Prng.float t.streams.(node))

let failover_node t ~node = (node + 1) mod t.storage_nodes

let record_fault t = t.c_faults <- t.c_faults + 1
let record_retry t = t.c_retries <- t.c_retries + 1
let record_timeout t = t.c_timeouts <- t.c_timeouts + 1
let record_failover t = t.c_failovers <- t.c_failovers + 1
let record_offline_miss t = t.c_offline_misses <- t.c_offline_misses + 1

let counts t =
  {
    faults = t.c_faults;
    retries = t.c_retries;
    timeouts = t.c_timeouts;
    failovers = t.c_failovers;
    remaps = t.c_remaps;
    offline_misses = t.c_offline_misses;
    spikes = t.c_spikes;
  }
