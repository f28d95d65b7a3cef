type hint = { file : int; lo_block : int; hi_block : int; accesses : float }

type cls = { file : int; lo : int; hi : int; density : float }

let size c = c.hi - c.lo + 1

module Int_map = Map.Make (Int)

let classes hints =
  List.iter
    (fun h ->
      if h.lo_block < 0 || h.hi_block < h.lo_block then invalid_arg "Karma: bad hint range";
      if h.accesses < 0. then invalid_arg "Karma: negative accesses")
    hints;
  let by_file =
    List.fold_left
      (fun m (h : hint) ->
        Int_map.update h.file (fun l -> Some (h :: Option.value l ~default:[])) m)
      Int_map.empty hints
  in
  Int_map.fold
    (fun file hs acc ->
      let boundaries =
        List.concat_map (fun h -> [ h.lo_block; h.hi_block + 1 ]) hs
        |> List.sort_uniq compare
      in
      let rec segments = function
        | lo :: (hi :: _ as rest) ->
          let density =
            List.fold_left
              (fun d h ->
                if h.lo_block <= lo && hi - 1 <= h.hi_block then
                  d +. (h.accesses /. float_of_int (h.hi_block - h.lo_block + 1))
                else d)
              0. hs
          in
          if density > 0. then { file; lo; hi = hi - 1; density } :: segments rest
          else segments rest
        | _ -> []
      in
      acc @ segments boundaries)
    by_file []

type plan = {
  global : cls array;
  l1_of_cls : int array array; (* per io node: indices into global *)
  l2_of_cls : int array;
}

let by_density_desc a b =
  let c = compare b.density a.density in
  if c <> 0 then c else compare (a.file, a.lo) (b.file, b.lo)

let greedy_fill capacity candidates =
  (* no class splitting: take a class only if it fits in the remainder *)
  let remaining = ref capacity in
  List.filter
    (fun (_, c) ->
      if size c <= !remaining then begin
        remaining := !remaining - size c;
        true
      end
      else false)
    candidates
  |> List.map fst

let overlaps (h : hint) (c : cls) =
  h.file = c.file && h.lo_block <= c.hi && c.lo <= h.hi_block

let plan ~l1_hints ~l1_capacity ~l2_capacity_total =
  let all_hints = Array.to_list l1_hints |> List.concat in
  let global = Array.of_list (classes all_hints) in
  let indexed = Array.to_list (Array.mapi (fun i c -> (i, c)) global) in
  let pinned = Hashtbl.create 64 in
  let l1_of_cls =
    Array.map
      (fun hints ->
        let touched = List.filter (fun (_, c) -> List.exists (fun h -> overlaps h c) hints) indexed in
        let sorted = List.sort (fun (_, a) (_, b) -> by_density_desc a b) touched in
        let chosen = greedy_fill l1_capacity sorted in
        List.iter (fun i -> Hashtbl.replace pinned i ()) chosen;
        Array.of_list chosen)
      l1_hints
  in
  let leftovers =
    List.filter (fun (i, _) -> not (Hashtbl.mem pinned i)) indexed
    |> List.sort (fun (_, a) (_, b) -> by_density_desc a b)
  in
  let l2_of_cls = Array.of_list (greedy_fill l2_capacity_total leftovers) in
  { global; l1_of_cls; l2_of_cls }

let l1_assigned plan ~io = Array.to_list (Array.map (fun i -> plan.global.(i)) plan.l1_of_cls.(io))
let l2_assigned plan = Array.to_list (Array.map (fun i -> plan.global.(i)) plan.l2_of_cls)

(* Lookup structure: per file, sorted (lo, hi, class index) for one level's
   assigned classes. *)
let range_index global indices =
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun i ->
      let c = global.(i) in
      let l = try Hashtbl.find tbl c.file with Not_found -> [] in
      Hashtbl.replace tbl c.file ((c.lo, c.hi, i) :: l))
    indices;
  let sorted = Hashtbl.create 16 in
  Hashtbl.iter
    (fun file l ->
      Hashtbl.replace sorted file
        (Array.of_list (List.sort (fun (a, _, _) (b, _, _) -> compare a b) l)))
    tbl;
  sorted

let find_class sorted b =
  match Hashtbl.find_opt sorted (Block.file b) with
  | None -> None
  | Some ranges ->
    let idx = Block.index b in
    let rec bsearch lo hi =
      if lo > hi then None
      else
        let mid = (lo + hi) / 2 in
        let l, h, i = ranges.(mid) in
        if idx < l then bsearch lo (mid - 1)
        else if idx > h then bsearch (mid + 1) hi
        else Some i
    in
    bsearch 0 (Array.length ranges - 1)

let partitioned_cache global indices ~quota_of =
  let sorted = range_index global indices in
  let parts = Hashtbl.create 16 in
  Array.iter
    (fun i -> Hashtbl.replace parts i (Lru.create ~capacity:(max 1 (quota_of global.(i)))))
    indices;
  let part_of b = Option.bind (find_class sorted b) (Hashtbl.find_opt parts) in
  let fold f init =
    Hashtbl.fold (fun _ (p : Policy.t) acc -> f p acc) parts init
  in
  {
    Policy.touch = (fun b -> match part_of b with None -> false | Some p -> p.Policy.touch b);
    insert = (fun b -> match part_of b with None -> None | Some p -> p.Policy.insert b);
    insert_cold =
      (fun b -> match part_of b with None -> None | Some p -> p.Policy.insert_cold b);
    remove = (fun b -> match part_of b with None -> false | Some p -> p.Policy.remove b);
    contains =
      (fun b -> match part_of b with None -> false | Some p -> p.Policy.contains b);
    size = (fun () -> fold (fun p acc -> acc + p.Policy.size ()) 0);
    clear = (fun () -> Hashtbl.iter (fun _ (p : Policy.t) -> p.Policy.clear ()) parts);
    iter = (fun f -> Hashtbl.iter (fun _ (p : Policy.t) -> p.Policy.iter f) parts);
    fast = None;
  }

let l1_cache plan ~io =
  partitioned_cache plan.global plan.l1_of_cls.(io) ~quota_of:size

let l2_cache plan ~storage_nodes =
  partitioned_cache plan.global plan.l2_of_cls
    ~quota_of:(fun c -> (size c + storage_nodes - 1) / storage_nodes)
