(* SLO evaluation over Engine.result: derive per-window {total; breaching}
   counts from the engine's served cells and the compiled kernels, then
   hand them to Flo_obs.Slo.  Nothing here touches a clock or a PRNG — the
   verdicts inherit the engine's replay-exactness. *)

module Slo = Flo_obs.Slo

type scope =
  | Tenant of int
  | Cohort of bool
  | Fleet

let scope_to_string = function
  | Tenant t -> Printf.sprintf "tenant %d" t
  | Cohort true -> "cohort optimized"
  | Cohort false -> "cohort default"
  | Fleet -> "fleet"

type row = { scope : scope; verdict : Slo.verdict }

type t = {
  spec : Slo.spec;
  windows : int;
  tenant_rows : row array;
  cohort_rows : row list;
  fleet : row;
}

(* requests of kernel [k] in one window that violate a latency threshold
   under congestion [multiplier]: the apportioned per-class counts are
   exactly what the replay added to the histograms, so the SLO sees the
   same distribution the percentiles came from *)
let breaching_of_kernel (k : Kernel.t) ~jobs ~multiplier ~threshold_us =
  let requests = jobs * k.Kernel.requests_per_job in
  if requests = 0 then 0
  else begin
    let counts = Kernel.apportion k ~requests in
    let breaching = ref 0 in
    Array.iteri
      (fun i cnt ->
        if cnt > 0 && k.Kernel.classes.(i).Kernel.latency_us *. multiplier > threshold_us
        then breaching := !breaching + cnt)
      counts;
    !breaching
  end

(* The walk is the engine's own cell walk, so the SLO scores exactly the
   requests the replay served, each under its serving multiplier and
   kernel.  Under overload control that is the *accepted* cohort: shed
   requests never enter [total] (rejecting a request is not the same
   failure as serving it late; the shed volume is reported separately by
   the traffic/overload reports).  Error rate is per element access — the
   layout-invariant request count — so a layout that avoids disk reads
   avoids their failures too; a retried request can fail more than once,
   so breaches are capped at the access count. *)
let samples_of_tenant spec (r : Engine.result) tenant =
  let windows = r.Engine.params.Engine.windows in
  let total = Array.make windows 0 in
  let breaching = Array.make windows 0 in
  Engine.cells r tenant
    ~served:(fun w _ k jobs multiplier ->
      match spec.Slo.objective with
      | Slo.Latency { threshold_us; _ } ->
        total.(w) <- total.(w) + (jobs * k.Kernel.requests_per_job);
        breaching.(w) <-
          breaching.(w) + breaching_of_kernel k ~jobs ~multiplier ~threshold_us
      | Slo.Error_rate _ ->
        total.(w) <- total.(w) + (jobs * k.Kernel.accesses_per_job);
        breaching.(w) <- breaching.(w) + (jobs * k.Kernel.errors_per_job))
    ~shed:(fun _ _ _ _ -> ());
  Array.init windows (fun w ->
      { Slo.total = total.(w); breaching = min breaching.(w) total.(w) })

let sum_samples windows per_tenant =
  let acc = Array.make windows { Slo.total = 0; breaching = 0 } in
  List.iter
    (Array.iteri (fun w (s : Slo.sample) ->
         acc.(w) <-
           { Slo.total = acc.(w).Slo.total + s.Slo.total;
             breaching = acc.(w).Slo.breaching + s.Slo.breaching }))
    per_tenant;
  acc

let evaluate spec (r : Engine.result) =
  let windows = r.Engine.params.Engine.windows in
  let n = Array.length r.Engine.tenants_stats in
  let per_tenant = Array.init n (samples_of_tenant spec r) in
  let eval scope samples =
    { scope; verdict = Slo.evaluate spec samples }
  in
  let tenant_rows = Array.mapi (fun t s -> eval (Tenant t) s) per_tenant in
  let cohort optimized =
    let members =
      List.filter
        (fun t -> r.Engine.tenants_stats.(t).Engine.optimized = optimized)
        (List.init n Fun.id)
    in
    if members = [] then None
    else
      Some
        (eval (Cohort optimized)
           (sum_samples windows (List.map (fun t -> per_tenant.(t)) members)))
  in
  let cohort_rows = List.filter_map cohort [ false; true ] in
  let fleet = eval Fleet (sum_samples windows (Array.to_list per_tenant)) in
  { spec; windows; tenant_rows; cohort_rows; fleet }
