type t = {
  name : string;
  metrics : Metrics.t option;
  clock : unit -> float;
  started_us : float;
}

let default_clock () = Int64.to_float (Monotonic_clock.now ()) *. 1e-3

(* spans range from sub-microsecond solver calls to second-scale suite
   sweeps: power-of-two buckets over ~40 decades of doubling *)
let span_histogram m name =
  Metrics.histogram m ~lo:1.0 ~gamma:2.0 ~buckets:40 ("span." ^ name)

let start ?metrics ?(clock = default_clock) name =
  { name; metrics; clock; started_us = clock () }

let stop t =
  let elapsed = Float.max 0. (t.clock () -. t.started_us) in
  Option.iter (fun m -> Histogram.add (span_histogram m t.name) elapsed) t.metrics;
  elapsed

let with_ ?metrics ?clock name f =
  match metrics with
  | None -> f ()
  | Some _ ->
    let span = start ?metrics ?clock name in
    Fun.protect ~finally:(fun () -> ignore (stop span)) f
