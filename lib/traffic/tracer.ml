module Trace = Flo_obs.Trace

(* Sampling decisions replay the engine's exact batching: the tracer
   consumes the same cell walk as the engine's replay, apportions each cell
   the same way, numbers requests 0.. per tenant, and never touches the
   histogram counts — it only *observes* the replay and attaches
   exemplars.  Determinism falls out of the walk being a pure function of
   (params, controller decisions): no draws, no wall clock, no shard
   interleaving. *)

type params = { sample_rate : int; breach_us : float }

let default = { sample_rate = 65536; breach_us = 1e6 }

let validate t =
  if t.sample_rate < 1 then Error "trace sample-rate must be positive"
  else if not (t.breach_us > 0.) then Error "trace breach threshold must be positive"
  else Ok ()

type cells =
  served:(int -> int -> Kernel.t -> int -> float -> unit) ->
  shed:(int -> int -> Kernel.t -> int -> unit) ->
  unit

(* one (window, class) group of a tenant's served cells *)
type group = {
  g_window : int;
  g_app : string;
  g_count : int;
  g_first_seq : int;
  g_latency_us : float;  (** the exact float the replay recorded *)
  g_class_us : float;  (** uncongested class latency *)
  g_profile : Kernel.profile option;
}

(* Sequence numbering runs over the offered request space: a cell's served
   requests consume sequence numbers first, then its shed requests — so
   head ids (2*seq) and group ids (2*first_seq + 1) can never collide
   between served and shed traces. *)
let groups_of (cells : cells) =
  let seq = ref 0 in
  let acc = ref [] in
  let shed_acc = ref [] in
  cells
    ~served:(fun w _ k jobs multiplier ->
      Array.iteri
        (fun i cnt ->
          if cnt > 0 then begin
            let class_us = k.Kernel.classes.(i).Kernel.latency_us in
            acc :=
              {
                g_window = w;
                g_app = k.Kernel.app;
                g_count = cnt;
                g_first_seq = !seq;
                (* the same expression the replay feeds add_many, so
                   exemplar values match the bucketed ones exactly *)
                g_latency_us = class_us *. multiplier;
                g_class_us = class_us;
                g_profile =
                  (if i < Array.length k.Kernel.profiles then k.Kernel.profiles.(i)
                   else None);
              }
              :: !acc;
            seq := !seq + cnt
          end)
        (Kernel.apportion k ~requests:(jobs * k.Kernel.requests_per_job)))
    ~shed:(fun w _ k jobs ->
      let n = jobs * k.Kernel.requests_per_job in
      if n > 0 then begin
        shed_acc := (w, k.Kernel.app, n, !seq) :: !shed_acc;
        seq := !seq + n
      end);
  (List.rev !acc, List.rev !shed_acc)

let has_step name (p : Kernel.profile) =
  List.exists (fun s -> s.Kernel.step_name = name) p.Kernel.rep_steps

let outcome_of = function
  | None -> "ok"
  | Some p ->
    if has_step "disk.timeout" p then "timeout"
    else if p.Kernel.faulty > 0 then "fault"
    else "ok"

(* arrival → queue/congestion → service (→ per-layer and disk steps), all on
   the modeled clock: the root starts at its window's origin and lasts the
   congested class latency; the uncongested service nests after the
   congestion share, its children the representative breakdown rescaled to
   the class edge *)
let span_tree ~win_len_us g =
  let t0 = float_of_int g.g_window *. win_len_us in
  let cong = g.g_latency_us -. g.g_class_us in
  let service_start = t0 +. cong in
  let steps =
    match g.g_profile with
    | None -> []
    | Some p ->
      let f =
        if p.Kernel.rep_latency_us > 0. then g.g_class_us /. p.Kernel.rep_latency_us
        else 0.
      in
      let cursor = ref service_start in
      List.map
        (fun (s : Kernel.step) ->
          let dur = s.Kernel.step_us *. f in
          let sp =
            Trace.span ~name:s.Kernel.step_name ~start_us:!cursor ~dur_us:dur ()
          in
          cursor := !cursor +. dur;
          sp)
        p.Kernel.rep_steps
  in
  let service =
    Trace.span ~children:steps ~name:"service" ~start_us:service_start
      ~dur_us:g.g_class_us ()
  in
  let children =
    if cong > 0. then
      [ Trace.span ~name:"queue.congestion" ~start_us:t0 ~dur_us:cong (); service ]
    else [ service ]
  in
  Trace.span ~children ~name:"request" ~start_us:t0 ~dur_us:g.g_latency_us ()

let trace_tenant ~t ~seed ~stream ~tenant ~shard ~win_len_us ~windows ~hist cells =
  let groups, shed_groups = groups_of cells in
  (* the max-latency group per window, first on ties — replay order is
     deterministic, so so is this *)
  let window_max = Array.make windows (-1) in
  let window_best = Array.make windows neg_infinity in
  List.iteri
    (fun gi g ->
      if g.g_latency_us > window_best.(g.g_window) then begin
        window_best.(g.g_window) <- g.g_latency_us;
        window_max.(g.g_window) <- gi
      end)
    groups;
  let traces_rev = ref [] in
  let emit ~trace_id ~count ~reasons g =
    let trace =
      Trace.make ~trace_id ~tenant ~app:g.g_app ~window:g.g_window ~shard
        ~outcome:(outcome_of g.g_profile) ~latency_us:g.g_latency_us ~count ~reasons
        ~root:(span_tree ~win_len_us g)
    in
    Flo_obs.Histogram.add_exemplar hist ~value:g.g_latency_us ~trace_id;
    traces_rev := trace :: !traces_rev
  in
  List.iteri
    (fun gi g ->
      let tail_reasons =
        (match g.g_profile with
        | Some p when p.Kernel.faulty > 0 -> [ Trace.Fault_path ]
        | _ -> [])
        @ (if g.g_latency_us > t.breach_us then [ Trace.Breach ] else [])
        @ if window_max.(g.g_window) = gi then [ Trace.Window_max ] else []
      in
      if tail_reasons <> [] then
        emit
          ~trace_id:(Flo_faults.Prng.at ~seed ~stream ((2 * g.g_first_seq) + 1))
          ~count:g.g_count ~reasons:tail_reasons g;
      (* head samples: replay sequence numbers divisible by the rate *)
      let first =
        (g.g_first_seq + t.sample_rate - 1) / t.sample_rate * t.sample_rate
      in
      let q = ref first in
      while !q < g.g_first_seq + g.g_count do
        emit
          ~trace_id:(Flo_faults.Prng.at ~seed ~stream (2 * !q))
          ~count:1 ~reasons:[ Trace.Head ] g;
        q := !q + t.sample_rate
      done)
    groups;
  (* one group trace per shed cell: a zero-duration [admission.shed] root
     at the window origin, standing for every request the controller
     rejected there.  No exemplar — shed requests never reach a
     histogram. *)
  let shed_traces =
    List.map
      (fun (w, app, n, first_seq) ->
        Trace.make
          ~trace_id:(Flo_faults.Prng.at ~seed ~stream ((2 * first_seq) + 1))
          ~tenant ~app ~window:w ~shard ~outcome:"shed" ~latency_us:0. ~count:n
          ~reasons:[ Trace.Shed ]
          ~root:
            (Trace.span ~name:"admission.shed"
               ~start_us:(float_of_int w *. win_len_us) ~dur_us:0. ()))
      shed_groups
  in
  List.rev_append !traces_rev shed_traces
