(* Inter-thread block sharing and eviction conflicts for one shared cache.

   Sharing is set-intersection cardinality over the per-block toucher
   bitsets (Touchers), whose running counters give the scalars in O(1);
   conflicts attribute each eviction to the pair (evictor, first thread to
   miss on the victim afterwards).  One probe per event finds the block's
   id, and with it the bitset, degree and pending evictor; the matrices are
   materialized on demand, over the thread ids asked for. *)

type t = {
  blocks : Touchers.t;
  mutable pending : int array;  (* block id -> evicting thread, -1 for none *)
  conflicts : (int, int) Hashtbl.t;  (* evictor lsl id_bits lor sufferer -> count *)
  mutable max_thread : int;
  mutable touches : int;
  mutable evictions : int;
}

let create () =
  {
    blocks = Touchers.create ();
    pending = Array.make 64 (-1);
    conflicts = Hashtbl.create 64;
    max_thread = -1;
    touches = 0;
    evictions = 0;
  }

let note_thread t thread =
  Packed.check_id "thread" thread;
  if thread > t.max_thread then t.max_thread <- thread

let block_id t key =
  let id = Touchers.intern t.blocks key in
  if id >= Array.length t.pending then t.pending <- Packed.grow t.pending id (-1);
  id

let touch t ~thread ~file ~block ~hit =
  let key = Packed.block ~file ~block in
  note_thread t thread;
  t.touches <- t.touches + 1;
  let id = block_id t key in
  let evictor = t.pending.(id) in
  if evictor >= 0 then begin
    (* first touch after an eviction resolves it: a *miss* by another
       thread means the evictor threw out a block that thread still
       needed; a hit means something (prefetch, demote) re-installed the
       block first and the eviction hurt nobody *)
    t.pending.(id) <- -1;
    if (not hit) && thread <> evictor then begin
      let pair = (evictor lsl Packed.id_bits) lor thread in
      Hashtbl.replace t.conflicts pair
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.conflicts pair))
    end
  end;
  ignore (Touchers.add t.blocks id thread)

let evict t ~thread ~file ~block =
  let key = Packed.block ~file ~block in
  note_thread t thread;
  t.evictions <- t.evictions + 1;
  (* an unresolved earlier eviction of the same block stays unresolved:
     nobody asked for the block in between, so it charged no conflict *)
  t.pending.(block_id t key) <- thread

let threads t = t.max_thread + 1
let touches t = t.touches
let evictions t = t.evictions
let distinct_blocks t = Touchers.touched t.blocks

let shared_among t ids =
  let n = List.length ids in
  let m = Array.make_matrix n n 0 in
  (* dense toucher index -> position in [ids] *)
  let pos = Array.make (Touchers.threads t.blocks) (-1) in
  List.iteri
    (fun i thread ->
      let d = Touchers.dense t.blocks thread in
      if d >= 0 then pos.(d) <- i)
    ids;
  let members = Array.make (Touchers.threads t.blocks) 0 in
  for id = 0 to Touchers.blocks t.blocks - 1 do
    let k = ref 0 in
    Touchers.iter_members t.blocks id (fun d ->
        if pos.(d) >= 0 then begin
          members.(!k) <- pos.(d);
          incr k
        end);
    for a = 0 to !k - 1 do
      let row = m.(members.(a)) in
      for b = 0 to !k - 1 do
        row.(members.(b)) <- row.(members.(b)) + 1
      done
    done
  done;
  m

let conflicts_among t ids =
  let n = List.length ids in
  let m = Array.make_matrix n n 0 in
  let pos = Hashtbl.create 16 in
  List.iteri (fun i thread -> Hashtbl.replace pos thread i) ids;
  Hashtbl.iter
    (fun pair c ->
      match
        ( Hashtbl.find_opt pos (pair lsr Packed.id_bits),
          Hashtbl.find_opt pos (pair land Packed.max_id) )
      with
      | Some e, Some s -> m.(e).(s) <- m.(e).(s) + c
      | _ -> ())
    t.conflicts;
  m

let distinct_of t ~thread =
  let d = Touchers.dense t.blocks thread in
  let acc = ref 0 in
  if d >= 0 then
    for id = 0 to Touchers.blocks t.blocks - 1 do
      if Touchers.mem t.blocks id d then incr acc
    done;
  !acc

let cross_shared t = Touchers.pairs t.blocks
let shared_blocks t = Touchers.shared t.blocks
let total_conflicts t = Hashtbl.fold (fun _ c acc -> acc + c) t.conflicts 0

let active_threads t =
  let touchers = List.init (Touchers.threads t.blocks) (Touchers.thread t.blocks) in
  let pairs = Hashtbl.fold (fun pair _ acc -> pair :: acc) t.conflicts [] in
  List.sort_uniq compare
    (touchers
    @ List.concat_map (fun p -> [ p lsr Packed.id_bits; p land Packed.max_id ]) pairs)
