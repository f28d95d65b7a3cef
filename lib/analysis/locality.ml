(* Per-thread, per-file distinct-block counts — the paper's Step I
   objective (Eq. 4): a thread's I/O working set is the number of distinct
   blocks it touches in each file. *)

type t = {
  seen : (int * int * int, unit) Hashtbl.t;  (* (thread, file, block) *)
  counts : (int * int, int ref) Hashtbl.t;  (* (thread, file) -> distinct *)
  degrees : (int * int, int ref) Hashtbl.t;  (* (file, block) -> distinct threads *)
  mutable requests : int;
  mutable shared_blocks : int;
  mutable cross_pairs : int;
}

let create () =
  {
    seen = Hashtbl.create 1024;
    counts = Hashtbl.create 64;
    degrees = Hashtbl.create 1024;
    requests = 0;
    shared_blocks = 0;
    cross_pairs = 0;
  }

let bump tbl key =
  match Hashtbl.find_opt tbl key with
  | Some r ->
    incr r;
    !r
  | None ->
    Hashtbl.add tbl key (ref 1);
    1

(* the sharing counts move only when a thread touches a block for the first
   time: the block's degree k grows by one and adds k - 1 new pairs *)
let touch t ~thread ~file ~block =
  t.requests <- t.requests + 1;
  let key = (thread, file, block) in
  if not (Hashtbl.mem t.seen key) then begin
    Hashtbl.add t.seen key ();
    ignore (bump t.counts (thread, file));
    let k = bump t.degrees (file, block) in
    t.cross_pairs <- t.cross_pairs + k - 1;
    if k = 2 then t.shared_blocks <- t.shared_blocks + 1
  end

let requests t = t.requests

let distinct t ~thread ~file =
  match Hashtbl.find_opt t.counts (thread, file) with Some r -> !r | None -> 0

let threads t =
  Hashtbl.fold (fun (th, _) _ acc -> max acc (th + 1)) t.counts 0

let files t =
  List.sort_uniq compare (Hashtbl.fold (fun (_, f) _ acc -> f :: acc) t.counts [])

let per_thread t =
  let tbl = Hashtbl.create 16 in
  Hashtbl.iter
    (fun (th, f) r ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt tbl th) in
      Hashtbl.replace tbl th ((f, !r) :: prev))
    t.counts;
  Hashtbl.fold (fun th l acc -> (th, List.sort compare l) :: acc) tbl []
  |> List.sort compare

let total_distinct t ~thread =
  Hashtbl.fold
    (fun (th, _) r acc -> if th = thread then acc + !r else acc)
    t.counts 0

let distinct_blocks t = Hashtbl.length t.degrees
let shared_blocks t = t.shared_blocks
let cross_pairs t = t.cross_pairs
