type exemplar = { value : float; trace_id : int64 }

type t = {
  lo : float;
  gamma : float;
  log_gamma : float;
  buckets : int array;
  mutable total : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
  (* per-bucket trace exemplars, allocated only by the first add_exemplar so
     histograms that never trace pay nothing; each bucket's list is sorted
     by the keep-max rule: value descending, trace id ascending on ties *)
  mutable exemplars : exemplar list array option;
  mutable ex_cap : int;  (* the largest [cap] any add_exemplar asked for *)
}

let create ?(lo = 1.0) ?(gamma = 1.6) ?(buckets = 48) () =
  if lo <= 0. then invalid_arg "Histogram.create: lo must be positive";
  if gamma <= 1. then invalid_arg "Histogram.create: gamma must exceed 1";
  if buckets < 1 then invalid_arg "Histogram.create: need at least 1 bucket";
  {
    lo;
    gamma;
    log_gamma = log gamma;
    buckets = Array.make buckets 0;
    total = 0;
    sum = 0.;
    min_v = infinity;
    max_v = neg_infinity;
    exemplars = None;
    ex_cap = 0;
  }

let bucket_count t = Array.length t.buckets

(* ceil of log_gamma (v / lo); monotone in v, so cumulative counts stay
   consistent even when the float log is off by an ulp at a boundary *)
let index_of t v =
  if v <= t.lo then 0
  else
    let i = int_of_float (ceil (log (v /. t.lo) /. t.log_gamma)) in
    min (max 1 i) (bucket_count t - 1)

let add t v =
  if Float.is_nan v then invalid_arg "Histogram.add: NaN";
  let i = index_of t v in
  t.buckets.(i) <- t.buckets.(i) + 1;
  t.total <- t.total + 1;
  t.sum <- t.sum +. v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let add_many t v n =
  if Float.is_nan v then invalid_arg "Histogram.add_many: NaN";
  if n < 0 then invalid_arg "Histogram.add_many: negative count";
  if n > 0 then begin
    let i = index_of t v in
    t.buckets.(i) <- t.buckets.(i) + n;
    t.total <- t.total + n;
    t.sum <- t.sum +. (v *. float_of_int n);
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v
  end

let count t = t.total
let sum t = t.sum
let is_empty t = t.total = 0
let mean t = if t.total = 0 then 0. else t.sum /. float_of_int t.total
let min_value t = if t.total = 0 then 0. else t.min_v
let max_value t = if t.total = 0 then 0. else t.max_v

let value_index = index_of

(* keep-max merge of two sorted exemplar lists: the [cap] largest values
   survive, ties broken towards the smaller trace id, duplicates (same value
   and id) collapsed — so merging is associative, commutative and idempotent
   and shard-order merges reproduce the jobs=1 list exactly *)
let exemplar_order a b =
  match compare b.value a.value with 0 -> compare a.trace_id b.trace_id | c -> c

let merge_exemplars ~cap a b =
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  let rec go a b =
    match (a, b) with
    | [], l | l, [] -> l
    | x :: xs, y :: ys -> (
      match exemplar_order x y with
      | 0 -> x :: go xs ys
      | c when c < 0 -> x :: go xs b
      | _ -> y :: go a ys)
  in
  take cap (go a b)

let add_exemplar ?(cap = 2) t ~value ~trace_id =
  if Float.is_nan value then invalid_arg "Histogram.add_exemplar: NaN";
  if cap < 1 then invalid_arg "Histogram.add_exemplar: cap must be positive";
  let slots =
    match t.exemplars with
    | Some slots -> slots
    | None ->
      let slots = Array.make (bucket_count t) [] in
      t.exemplars <- Some slots;
      slots
  in
  if cap > t.ex_cap then t.ex_cap <- cap;
  let i = index_of t value in
  slots.(i) <- merge_exemplars ~cap:t.ex_cap [ { value; trace_id } ] slots.(i)

let exemplars_of_bucket t i =
  match t.exemplars with
  | None -> []
  | Some slots ->
    if i < 0 || i >= bucket_count t then
      invalid_arg "Histogram.exemplars_of_bucket: bucket out of range";
    slots.(i)

let has_exemplars t =
  match t.exemplars with
  | None -> false
  | Some slots -> Array.exists (fun l -> l <> []) slots

let bound t i =
  if i = bucket_count t - 1 then infinity else t.lo *. (t.gamma ** float_of_int i)

let bounds t = Array.init (bucket_count t) (bound t)
let counts t = Array.copy t.buckets

let percentile_bucket t p =
  if p < 0. || p > 1. then invalid_arg "Histogram.percentile_bucket: p outside [0, 1]";
  if t.total = 0 then 0
  else begin
    let rank = max 1 (min t.total (int_of_float (ceil (p *. float_of_int t.total)))) in
    let idx = ref (bucket_count t - 1) in
    let cum = ref 0 in
    (try
       for i = 0 to bucket_count t - 1 do
         cum := !cum + t.buckets.(i);
         if !cum >= rank then begin
           idx := i;
           raise Exit
         end
       done
     with Exit -> ());
    !idx
  end

let percentile t p =
  if p < 0. || p > 1. then invalid_arg "Histogram.percentile: p outside [0, 1]";
  if t.total = 0 then 0.
  else Float.max t.min_v (Float.min (bound t (percentile_bucket t p)) t.max_v)

(* exemplars for the bucket holding the p-quantile; when that bucket carries
   none (sampling is sparse), fall back to the nearest populated bucket above
   it, then below — deterministic, and non-empty whenever any bucket has one *)
let exemplars_at t ~p =
  match t.exemplars with
  | None -> []
  | Some slots ->
    if t.total = 0 then []
    else begin
      let b = percentile_bucket t p in
      if slots.(b) <> [] then slots.(b)
      else begin
        let n = bucket_count t in
        let found = ref [] in
        (try
           for i = b + 1 to n - 1 do
             if slots.(i) <> [] then begin
               found := slots.(i);
               raise Exit
             end
           done;
           for i = b - 1 downto 0 do
             if slots.(i) <> [] then begin
               found := slots.(i);
               raise Exit
             end
           done
         with Exit -> ());
        !found
      end
    end

let same_shape a b =
  a.lo = b.lo && a.gamma = b.gamma && bucket_count a = bucket_count b

let merge a b =
  if not (same_shape a b) then invalid_arg "Histogram.merge: shape mismatch";
  let cap = max a.ex_cap b.ex_cap in
  let exemplars =
    match (a.exemplars, b.exemplars) with
    | None, None -> None
    | Some sa, None -> Some (Array.copy sa)
    | None, Some sb -> Some (Array.copy sb)
    | Some sa, Some sb ->
      Some (Array.init (bucket_count a) (fun i -> merge_exemplars ~cap sa.(i) sb.(i)))
  in
  {
    lo = a.lo;
    gamma = a.gamma;
    log_gamma = a.log_gamma;
    buckets = Array.init (bucket_count a) (fun i -> a.buckets.(i) + b.buckets.(i));
    total = a.total + b.total;
    sum = a.sum +. b.sum;
    min_v = Float.min a.min_v b.min_v;
    max_v = Float.max a.max_v b.max_v;
    exemplars;
    ex_cap = cap;
  }

let merge_list = function
  | [] -> create ()
  | h :: rest -> List.fold_left merge h rest

let reset t =
  Array.fill t.buckets 0 (bucket_count t) 0;
  t.total <- 0;
  t.sum <- 0.;
  t.min_v <- infinity;
  t.max_v <- neg_infinity;
  (match t.exemplars with
  | None -> ()
  | Some slots -> Array.fill slots 0 (Array.length slots) []);
  ()

let pp ppf t =
  if t.total = 0 then Format.fprintf ppf "empty"
  else
    Format.fprintf ppf "n=%d mean=%.1f min=%.1f p50=%.1f p99=%.1f max=%.1f" t.total
      (mean t) (min_value t) (percentile t 0.5) (percentile t 0.99) (max_value t)
