(* A block id is a single immediate int: [file] in the high bits, [index]
   in the low bits.  Blocks are unboxed everywhere — streams are plain int
   arrays, equality is one compare, hashing is the identity — which is what
   lets the simulation kernel run allocation-free (see Flat_lru). *)

type t = int

let index_bits = 36
let index_mask = (1 lsl index_bits) - 1
let max_index = index_mask
let max_file = (1 lsl (62 - index_bits)) - 1

let make ~file ~index =
  if file < 0 || index < 0 then invalid_arg "Block.make: negative component";
  if file > max_file || index > max_index then
    invalid_arg "Block.make: component out of range";
  (file lsl index_bits) lor index

let file t = t lsr index_bits
let index t = t land index_mask
let to_int t = t
let unsafe_of_int i = i

(* file occupies the high bits, so int order is (file, index) order *)
let compare (a : int) (b : int) = compare a b
let equal (a : int) (b : int) = a = b
let hash t = t

let pp ppf t = Format.fprintf ppf "%d:%d" (file t) (index t)

module Key = struct
  type nonrec t = t

  let equal = equal
  let hash = hash
  let compare = compare
end

module Tbl = Hashtbl.Make (Key)
module Set = Set.Make (Key)
