(* Deterministic Domain-based fan-out for the experiment grid.

   Tasks are pure from the pool's point of view: each closure owns its
   sinks, metrics registries and hierarchies, so the only shared state is
   the input array (read-only) and the results array (disjoint writes, one
   slot per task, published by Domain.join).  Results are merged by input
   index, so every jobs setting — including 1, which never spawns a domain
   and is byte-for-byte today's sequential code path — produces the same
   value in the same order. *)

let parse_jobs s =
  match int_of_string_opt s with
  | Some n when n >= 1 -> Ok n
  | _ -> Error (Printf.sprintf "FLOPT_JOBS=%S: expected a positive integer" s)

let cores () = max 1 (Domain.recommended_domain_count ())

let default_jobs () =
  match Sys.getenv_opt "FLOPT_JOBS" with
  | Some s -> parse_jobs s
  | None -> Ok (cores ())

(* FLOPT_JOBS is the CLI's to read, through [default_jobs]: an omitted
   [jobs] is the core count, so no library call raises on a bad value *)
let resolve_jobs = function
  | None -> cores ()
  | Some n when n >= 1 -> n
  | Some n -> invalid_arg (Printf.sprintf "Parallel: jobs = %d < 1" n)

let map ?jobs f arr =
  let n = Array.length arr in
  let jobs = min (resolve_jobs jobs) n in
  if jobs <= 1 then Array.map f arr
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (* capture per-task failures so one bad task neither kills the
             domain nor starves the queue; the join below re-raises the
             lowest-index failure, independent of scheduling *)
          let r =
            try Ok (f arr.(i))
            with e -> Error (e, Printexc.get_raw_backtrace ())
          in
          results.(i) <- Some r;
          loop ()
        end
      in
      loop ()
    in
    (* spawn inside the protected region: if Domain.spawn itself raises
       partway (resource exhaustion), the domains already started are still
       joined — the pool can never leak a domain, even when every task (or
       the spawn loop) throws *)
    let helpers = ref [] in
    Fun.protect
      ~finally:(fun () -> List.iter Domain.join !helpers)
      (fun () ->
        for _ = 1 to jobs - 1 do
          helpers := Domain.spawn worker :: !helpers
        done;
        (* the calling domain is the jobs-th worker *)
        worker ());
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> assert false)
      results
  end

let map_list ?jobs f l = Array.to_list (map ?jobs f (Array.of_list l))
