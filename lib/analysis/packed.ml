(* Packed integer keys and the one table the analyzer's views share.

   A block key is (file, block) packed the way Flo_storage.Block packs a
   block: file in the high 26 bits, index in the low 36.  The table maps a
   non-negative key to a dense id assigned in insertion order, so callers
   keep per-key columns in plain int arrays indexed by id; growing the table
   rehashes keys, never ids, and so never moves a column.  Open addressing
   with linear probing and Fibonacci hashing, as in Flo_storage.Flat_lru;
   keys are never removed, so there is no deletion. *)

let index_bits = 36
let file_bits = 62 - index_bits
let max_file = (1 lsl file_bits) - 1
let max_index = (1 lsl index_bits) - 1
let id_bits = 16
let max_id = (1 lsl id_bits) - 1

(* one shift rejects a negative component (its high bits survive) and a
   component past the packing range alike *)
let block ~file ~block =
  if (file lsr file_bits) lor (block lsr index_bits) <> 0 then
    invalid_arg "Flo_analysis: file or block outside the packing range";
  (file lsl index_bits) lor block

let file key = key lsr index_bits
let index key = key land max_index

let check_id what v =
  if v lsr id_bits <> 0 then invalid_arg ("Flo_analysis: " ^ what ^ " id outside [0, 65535]")

let grow a i fill =
  let n = Array.length a in
  let b = Array.make (max (i + 1) (2 * n)) fill in
  Array.blit a 0 b 0 n;
  b

type t = {
  mutable slots : int array;  (* 2 * probe index -> key (-1 when empty); + 1 -> id *)
  mutable shift : int;  (* 63 - log2 buckets *)
  mutable mask : int;  (* buckets - 1 *)
  mutable keys : int array;  (* id -> key *)
  mutable count : int;
}

let create () =
  { slots = Array.make 32 (-1); shift = 59; mask = 15; keys = Array.make 8 0; count = 0 }

let length t = t.count
let key t id = t.keys.(id)
let home t k = (k * 0x2545_f491_4f6c_dd1d) lsr t.shift

(* the probe index holding [k], or the empty one where it would go; the
   load factor stays <= 1/2, so an empty bucket always ends the probe *)
let rec probe slots mask k i =
  let hk = slots.(2 * i) in
  if hk = k || hk < 0 then i else probe slots mask k ((i + 1) land mask)

let find t k =
  if k < 0 then -1
  else
    let i = probe t.slots t.mask k (home t k) in
    if t.slots.(2 * i) = k then t.slots.((2 * i) + 1) else -1

let resize t =
  let buckets = 2 * (t.mask + 1) in
  t.slots <- Array.make (2 * buckets) (-1);
  t.mask <- buckets - 1;
  t.shift <- t.shift - 1;
  for id = 0 to t.count - 1 do
    let k = t.keys.(id) in
    let i = probe t.slots t.mask k (home t k) in
    t.slots.(2 * i) <- k;
    t.slots.((2 * i) + 1) <- id
  done

let intern t k =
  if k < 0 then invalid_arg "Packed.intern: negative key";
  let i = probe t.slots t.mask k (home t k) in
  if t.slots.(2 * i) = k then t.slots.((2 * i) + 1)
  else begin
    let id = t.count in
    t.count <- id + 1;
    if id >= Array.length t.keys then t.keys <- grow t.keys id 0;
    t.keys.(id) <- k;
    if 2 * t.count > t.mask + 1 then resize t
    else begin
      t.slots.(2 * i) <- k;
      t.slots.((2 * i) + 1) <- id
    end;
    id
  end
