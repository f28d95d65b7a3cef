(* Timing for the benchmark: the monotonic clock, sample summaries, the
   closed-loop [measure] helper, and the span ledger the traced run uses to
   attribute self time to layers.  Every duration in bench/perf comes from
   [Monotonic_clock] (CLOCK_MONOTONIC), never from the wall clock. *)

let now_ns = Monotonic_clock.now

let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, seconds_since t0)

let sorted samples =
  let s = Array.copy samples in
  Array.sort Float.compare s;
  s

(* Exclusive-method quantile (Python's [statistics.quantiles] default):
   position [p * (n + 1)] in the sorted samples, interpolated linearly and
   clamped to the observed range. *)
let quantile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Measure.quantile: no samples";
  if n = 1 then sorted.(0)
  else
    let h = p *. float_of_int (n + 1) in
    let j = max 1 (min (n - 1) (int_of_float (Float.floor h))) in
    let frac = Float.min 1. (Float.max 0. (h -. float_of_int j)) in
    sorted.(j - 1) +. (frac *. (sorted.(j) -. sorted.(j - 1)))

type summary = { n : int; median : float; q1 : float; q3 : float }

let summarize samples =
  let s = sorted samples in
  { n = Array.length s; median = quantile s 0.5; q1 = quantile s 0.25; q3 = quantile s 0.75 }

(* The [pct]-th percentile, only when at least ten samples lie beyond it:
   with fewer, a handful of outliers would set its value. *)
let percentile samples ~pct =
  if pct <= 0 || pct >= 100 then invalid_arg "Measure.percentile: pct must be in 1..99";
  let n = Array.length samples in
  let at_or_below = ((pct * n) + 99) / 100 in
  if n - at_or_below < 10 then None
  else Some (quantile (sorted samples) (float_of_int pct /. 100.))

type run = {
  setup_s : float array;  (** each: build the inputs, then one warmup iteration *)
  iter_s : float array;  (** timed iterations, in run order *)
}

(* The heap is compacted, untimed, before every timed call: each sample
   starts from the state a fresh process would, instead of paying for the
   previous one's garbage. *)
let time_compacted f =
  Gc.compact ();
  time f

(* One closed loop: a single client starts the next iteration only when the
   previous one has returned.  [setup ()] builds fresh inputs and returns
   the iteration; it runs three times, each followed by one warmup call, so
   set-up time is a median too.  Then the last set-up's iteration runs
   until [seconds] have passed and at least [min_iters] samples exist.
   [check ~timed] sees every result, warmups with [timed = false], outside
   the timed region. *)
let measure ~min_iters ~seconds ~setup ~check () =
  let rec setups acc =
    let (iterate, r), dt =
      time_compacted (fun () ->
          let iterate = setup () in
          (iterate, iterate ()))
    in
    check ~timed:false r;
    let acc = dt :: acc in
    if List.length acc >= 3 then (iterate, Array.of_list (List.rev acc)) else setups acc
  in
  let iterate, setup_s = setups [] in
  let start = now_ns () in
  let rec loop acc count =
    if count >= min_iters && seconds_since start >= seconds then
      Array.of_list (List.rev acc)
    else begin
      let r, dt = time_compacted iterate in
      check ~timed:true r;
      loop (dt :: acc) (count + 1)
    end
  in
  { setup_s; iter_s = loop [] 0 }

(* Span ledger: [span l name f] times [f] and charges its self time — its
   duration minus the spans opened inside it — to [name].  The traced run
   opens one root span per iteration, so the root's self time is the part
   of the iteration no layer span covers. *)
module Ledger = struct
  type t = { self : (string, float) Hashtbl.t; mutable stack : float ref list }

  let create () = { self = Hashtbl.create 16; stack = [] }

  let self_s t name = Option.value ~default:0. (Hashtbl.find_opt t.self name)

  let total_s t = Hashtbl.fold (fun _ s acc -> acc +. s) t.self 0.

  let span t name f =
    let children = ref 0. in
    let parent = t.stack in
    t.stack <- children :: parent;
    let t0 = now_ns () in
    Fun.protect f ~finally:(fun () ->
        let dur = seconds_since t0 in
        t.stack <- parent;
        (match parent with p :: _ -> p := !p +. dur | [] -> ());
        Hashtbl.replace t.self name (self_s t name +. dur -. !children))
end
