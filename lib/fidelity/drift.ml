(* Windowed layout drift detection: normalized deltas of workload signals
   against the baseline the current layouts were optimized for, folded
   through enter/exit hysteresis into a re-layout recommendation. *)

type signal = {
  miss_l1 : float;
  miss_l2 : float;
  cross_shared : int;
  sharing : (int * int * int) list;
  fidelity_rel : float;
}

type reason =
  | Miss_rate_drift of { layer : string; baseline : float; current : float; rel : float }
  | Sharing_shift of { baseline : int; current : int; rel : float }
  | Matrix_shift of { rel : float }
  | Fidelity_degraded of { baseline : float; current : float; rel : float }

let f3 v = Printf.sprintf "%.3f" v

let reason_to_string = function
  | Miss_rate_drift { layer; baseline; current; rel } ->
    Printf.sprintf "miss-rate-drift layer=%s base=%s cur=%s rel=%s" layer
      (f3 baseline) (f3 current) (f3 rel)
  | Sharing_shift { baseline; current; rel } ->
    Printf.sprintf "sharing-shift base=%d cur=%d rel=%s" baseline current (f3 rel)
  | Matrix_shift { rel } -> Printf.sprintf "matrix-shift rel=%s" (f3 rel)
  | Fidelity_degraded { baseline; current; rel } ->
    Printf.sprintf "fidelity-degraded base=%s cur=%s rel=%s" (f3 baseline)
      (f3 current) (f3 rel)

let rel_of_reason = function
  | Miss_rate_drift { rel; _ }
  | Sharing_shift { rel; _ }
  | Matrix_shift { rel }
  | Fidelity_degraded { rel; _ } ->
    rel

type config = { enter : float; exit_ : float; streak : int }

let default_config = { enter = 0.25; exit_ = 0.10; streak = 2 }

let validate_config c =
  if not (Float.is_finite c.enter && Float.is_finite c.exit_) then
    Error "thresholds must be finite"
  else if c.exit_ < 0. then Error "exit threshold must be non-negative"
  else if c.enter < c.exit_ then Error "enter threshold must be >= exit threshold"
  else if c.streak < 1 then Error "streaks must be positive"
  else Ok ()

type t = {
  config : config;
  baseline : signal;
  windows : int;
  above : int;  (* consecutive windows scoring >= enter *)
  below : int;  (* consecutive windows scoring <= exit *)
  on : bool;
  on_reasons : reason list;
  last : float;
}

let create ?(config = default_config) ~baseline () =
  (match validate_config config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Drift.create: " ^ msg));
  {
    config;
    baseline;
    windows = 0;
    above = 0;
    below = 0;
    on = false;
    on_reasons = [];
    last = 0.;
  }

(* |cur - base| scaled by the baseline, with a floor so a near-zero
   baseline reads "any appreciable absolute change is a big relative one"
   instead of dividing by zero *)
let rel_delta ~floor base cur = Float.abs (cur -. base) /. Float.max floor base

(* add [count] to a sparse matrix's cell *)
let bump cells cell count =
  Hashtbl.replace cells cell (count + Option.value ~default:0 (Hashtbl.find_opt cells cell))

(* normalized L1 distance between sparse sharing matrices: sum of absolute
   cell deltas over the baseline's total mass (absent cells are 0) *)
let matrix_rel a b =
  let delta = Hashtbl.create 64 in
  List.iter (fun (i, j, count) -> bump delta (i, j) count) a;
  List.iter (fun (i, j, count) -> bump delta (i, j) (-count)) b;
  let num = Hashtbl.fold (fun _ d acc -> acc + abs d) delta 0 in
  let base_mass = List.fold_left (fun acc (_, _, count) -> acc + count) 0 a in
  float_of_int num /. float_of_int (max 1 base_mass)

let components base cur =
  [
    Miss_rate_drift
      {
        layer = "l1";
        baseline = base.miss_l1;
        current = cur.miss_l1;
        rel = rel_delta ~floor:1e-3 base.miss_l1 cur.miss_l1;
      };
    Miss_rate_drift
      {
        layer = "l2";
        baseline = base.miss_l2;
        current = cur.miss_l2;
        rel = rel_delta ~floor:1e-3 base.miss_l2 cur.miss_l2;
      };
    Sharing_shift
      {
        baseline = base.cross_shared;
        current = cur.cross_shared;
        rel =
          rel_delta ~floor:1.
            (float_of_int base.cross_shared)
            (float_of_int cur.cross_shared);
      };
    Matrix_shift { rel = matrix_rel base.sharing cur.sharing };
    Fidelity_degraded
      {
        baseline = base.fidelity_rel;
        current = cur.fidelity_rel;
        (* fidelity is already a relative quantity: any worsening past the
           baseline is itself the normalized delta *)
        rel = Float.max 0. (cur.fidelity_rel -. base.fidelity_rel);
      };
  ]

let score t cur =
  let comps = components t.baseline cur in
  let worst = List.fold_left (fun acc c -> Float.max acc (rel_of_reason c)) 0. comps in
  let firing =
    List.filter (fun c -> rel_of_reason c >= t.config.enter) comps
    |> List.stable_sort (fun a b -> compare (rel_of_reason b) (rel_of_reason a))
  in
  (worst, firing)

let observe t cur =
  let s, firing = score t cur in
  let above = if s >= t.config.enter then t.above + 1 else 0 in
  let below = if s <= t.config.exit_ then t.below + 1 else 0 in
  let t = { t with windows = t.windows + 1; above; below; last = s } in
  if (not t.on) && above >= t.config.streak then
    { t with on = true; on_reasons = firing; above = 0; below = 0 }
  else if t.on && below >= t.config.streak then
    { t with on = false; on_reasons = []; above = 0; below = 0 }
  else t

let windows_seen t = t.windows
let recommended t = t.on
let reasons t = t.on_reasons
let last_score t = t.last

let status_line t =
  Printf.sprintf "drift windows=%d score=%s recommend=%s reasons=[%s]" t.windows
    (f3 t.last)
    (if t.on then "yes" else "no")
    (String.concat "; " (List.map reason_to_string t.on_reasons))

(* summed over the L2 caches: a thread that reads through several storage
   nodes adds its cells from each; each cache's matrix spans only its
   active threads, so ids up to 65535 cost nothing extra *)
let sharing_of analyzer =
  let module A = Flo_analysis.Analyzer in
  let cells = Hashtbl.create 256 in
  let add_cache (cache : A.cache) =
    match A.sharing_of analyzer cache with
    | Some s when cache.A.layer = Flo_obs.Event.L2 ->
      let ids = Flo_analysis.Sharing.active_threads s in
      let m = Flo_analysis.Sharing.shared_among s ids in
      List.iteri
        (fun a i -> List.iteri (fun b j -> if m.(a).(b) > 0 then bump cells (i, j) m.(a).(b)) ids)
        ids
    | _ -> ()
  in
  List.iter add_cache (A.caches analyzer);
  List.sort compare (Hashtbl.fold (fun (i, j) count acc -> (i, j, count) :: acc) cells [])
