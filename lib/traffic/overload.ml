(* Overload-control decision machinery.  Everything here is pure: the
   engine feeds it per-(shard, window) job ledgers and it answers with
   exact integer keep/shed counts.  The admission controller, routing and
   breaker live in Engine's control loop — this module is the vocabulary
   (policies, params, segments) plus the apportioning arithmetic. *)

type policy = Fail_fast | Priority | Brownout

let policy_to_string = function
  | Fail_fast -> "fail-fast"
  | Priority -> "priority"
  | Brownout -> "brownout"

let policy_of_string = function
  | "fail-fast" -> Ok Fail_fast
  | "priority" -> Ok Priority
  | "brownout" -> Ok Brownout
  | s ->
    Error
      (Printf.sprintf
         "unknown shed policy %S (expected off, fail-fast, priority or brownout)" s)

type params = {
  shed : policy option;
  capacity : float;
  brownout_factor : int;
  breaker : Flo_faults.Breaker.spec option;
}

let default =
  { shed = Some Fail_fast; capacity = 1.0; brownout_factor = 8; breaker = None }

let validate p =
  if not (p.capacity > 0.) then
    Error (Printf.sprintf "overload capacity must be positive (got %g)" p.capacity)
  else if p.brownout_factor < 2 then
    Error
      (Printf.sprintf "overload brownout factor must be at least 2 (got %d)"
         p.brownout_factor)
  else if p.shed = None && p.breaker = None then
    Error "overload controls are all off (enable a shed policy or a breaker)"
  else
    match p.breaker with
    | None -> Ok ()
    | Some b -> Flo_faults.Breaker.validate b

let describe p =
  let cap =
    if p.capacity = infinity then "" else Printf.sprintf " capacity=%.12g" p.capacity
  in
  let shed =
    match p.shed with
    | None -> "policy=off"
    | Some pol -> Printf.sprintf "policy=%s" (policy_to_string pol)
  in
  let breaker =
    match p.breaker with
    | None -> ""
    | Some b -> Printf.sprintf " breaker=%s" (Flo_faults.Breaker.to_string b)
  in
  shed ^ (if p.shed = None then "" else cap) ^ breaker

(* Largest-remainder keep: same arithmetic as Kernel.apportion, but
   capped pointwise by [counts] — a class can never keep more jobs than it
   offered.  The leftover loop skips saturated classes; [keep < total]
   guarantees spare capacity exists, so it terminates. *)
let split ~counts ~keep =
  let n = Array.length counts in
  let total = Array.fold_left ( + ) 0 counts in
  if keep <= 0 || total = 0 || n = 0 then Array.make n 0
  else if keep >= total then Array.copy counts
  else begin
    let f = float_of_int keep /. float_of_int total in
    let kept = Array.make n 0 in
    let rems = Array.make n (0., 0) in
    let assigned = ref 0 in
    Array.iteri
      (fun i c ->
        let exact = f *. float_of_int c in
        let base = min c (int_of_float exact) in
        kept.(i) <- base;
        assigned := !assigned + base;
        rems.(i) <- (exact -. float_of_int base, i))
      counts;
    Array.sort
      (fun (ra, ia) (rb, ib) -> if ra = rb then compare ia ib else compare rb ra)
      rems;
    let leftover = ref (keep - !assigned) in
    let j = ref 0 in
    while !leftover > 0 do
      let _, i = rems.(!j mod n) in
      if kept.(i) < counts.(i) then begin
        kept.(i) <- kept.(i) + 1;
        decr leftover
      end;
      incr j
    done;
    kept
  end

type variant = Normal | Fail_fast_serve | Browned

let variant_to_string = function
  | Normal -> "normal"
  | Fail_fast_serve -> "fail-fast"
  | Browned -> "browned"

type seg = { sg_variant : variant; sg_jobs : int; sg_mult : float }
