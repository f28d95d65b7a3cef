(* Which threads touched each block, as flat bitsets.

   Blocks get dense ids from a Packed table; threads get dense indices in
   the order they first touch a block here, so a block's bitset is
   ceil(distinct threads / 63) words however large the thread ids are.  The
   bitsets of all blocks share one int array, [width] words per block; a new
   thread past the last word widens every block by one word.  The degree of
   a block is its bitset's cardinality, and the sharing counters move only
   when a thread touches a block for the first time. *)

type t = {
  blocks : Packed.t;  (* packed block key -> block id *)
  thread_ids : Packed.t;  (* thread -> dense index *)
  mutable degree : int array;  (* block id -> threads that touched it *)
  mutable bits : int array;  (* block id * width + word -> 63 threads each *)
  mutable width : int;
  mutable touched : int;  (* blocks of degree >= 1 *)
  mutable shared : int;  (* blocks of degree >= 2 *)
  mutable pairs : int;  (* sum over blocks of degree * (degree - 1) / 2 *)
}

let create () =
  {
    blocks = Packed.create ();
    thread_ids = Packed.create ();
    degree = Array.make 64 0;
    bits = Array.make 64 0;
    width = 1;
    touched = 0;
    shared = 0;
    pairs = 0;
  }

let intern t key =
  let id = Packed.intern t.blocks key in
  if id >= Array.length t.degree then begin
    let n = Array.length t.degree in
    t.degree <- Packed.grow t.degree id 0;
    let bits = Array.make (Array.length t.degree * t.width) 0 in
    Array.blit t.bits 0 bits 0 (n * t.width);
    t.bits <- bits
  end;
  id

let widen t =
  let w = t.width in
  let bits = Array.make (Array.length t.degree * (w + 1)) 0 in
  for id = 0 to Packed.length t.blocks - 1 do
    Array.blit t.bits (id * w) bits (id * (w + 1)) w
  done;
  t.bits <- bits;
  t.width <- w + 1

let add t id thread =
  let d = Packed.intern t.thread_ids thread in
  if d >= 63 * t.width then widen t;
  let w = (id * t.width) + (d / 63) and m = 1 lsl (d mod 63) in
  let word = t.bits.(w) in
  if word land m <> 0 then false
  else begin
    t.bits.(w) <- word lor m;
    let k = t.degree.(id) + 1 in
    t.degree.(id) <- k;
    t.pairs <- t.pairs + k - 1;
    if k = 1 then t.touched <- t.touched + 1;
    if k = 2 then t.shared <- t.shared + 1;
    true
  end

let blocks t = Packed.length t.blocks
let touched t = t.touched
let shared t = t.shared
let pairs t = t.pairs
let threads t = Packed.length t.thread_ids
let thread t d = Packed.key t.thread_ids d
let dense t thread = Packed.find t.thread_ids thread

let mem t id d =
  d >= 0 && t.bits.((id * t.width) + (d / 63)) land (1 lsl (d mod 63)) <> 0

let iter_members t id f =
  let base = id * t.width in
  for w = 0 to t.width - 1 do
    let word = t.bits.(base + w) in
    if word <> 0 then
      for b = 0 to 62 do
        if word land (1 lsl b) <> 0 then f ((63 * w) + b)
      done
  done
