(* Per-thread, per-file distinct-block counts — the paper's Step I
   objective (Eq. 4): a thread's I/O working set is the number of distinct
   blocks it touches in each file.

   Blocks carry their toucher bitsets (Touchers); a thread's first touch of
   a block bumps its (thread, file) count, a dense-id column keyed by the
   packed pair. *)

type t = {
  blocks : Touchers.t;
  pairs : Packed.t;  (* thread lsl file_bits lor file -> pair id *)
  mutable counts : int array;  (* pair id -> distinct blocks *)
  mutable requests : int;
}

let create () =
  { blocks = Touchers.create (); pairs = Packed.create (); counts = Array.make 64 0; requests = 0 }

let pair_key ~thread ~file = (thread lsl Packed.file_bits) lor file

let touch t ~thread ~file ~block =
  let key = Packed.block ~file ~block in
  Packed.check_id "thread" thread;
  t.requests <- t.requests + 1;
  if Touchers.add t.blocks (Touchers.intern t.blocks key) thread then begin
    let p = Packed.intern t.pairs (pair_key ~thread ~file) in
    if p >= Array.length t.counts then t.counts <- Packed.grow t.counts p 0;
    t.counts.(p) <- t.counts.(p) + 1
  end

let requests t = t.requests

let distinct t ~thread ~file =
  if thread lsr Packed.id_bits <> 0 || file lsr Packed.file_bits <> 0 then 0
  else
    let p = Packed.find t.pairs (pair_key ~thread ~file) in
    if p < 0 then 0 else t.counts.(p)

(* (thread, file, distinct) for every pair seen, unordered *)
let fold_pairs t f init =
  let acc = ref init in
  for p = 0 to Packed.length t.pairs - 1 do
    let key = Packed.key t.pairs p in
    acc := f !acc (key lsr Packed.file_bits) (key land Packed.max_file) t.counts.(p)
  done;
  !acc

let threads t = fold_pairs t (fun acc th _ _ -> max acc (th + 1)) 0

let files t = List.sort_uniq compare (fold_pairs t (fun acc _ f _ -> f :: acc) [])

let per_thread t =
  let sorted = List.sort compare (fold_pairs t (fun acc th f n -> (th, f, n) :: acc) []) in
  List.fold_right
    (fun (th, f, n) acc ->
      match acc with
      | (th', l) :: rest when th' = th -> (th, (f, n) :: l) :: rest
      | _ -> (th, [ (f, n) ]) :: acc)
    sorted []

let total_distinct t ~thread =
  fold_pairs t (fun acc th _ n -> if th = thread then acc + n else acc) 0

let distinct_blocks t = Touchers.blocks t.blocks
let shared_blocks t = Touchers.shared t.blocks
let cross_pairs t = Touchers.pairs t.blocks
