(* LRU stack distances over one cache's lookup stream.

   The classic Fenwick-tree formulation: every distinct block keeps a single
   "1" at the sequence slot of its most recent touch, so the number of
   distinct blocks touched strictly between two touches of the same block is
   a prefix-sum difference.  O(log n) per touch, O(n) memory in the stream
   length.  The last-touch map is a dense-id column over packed block keys
   (Packed). *)

type t = {
  mutable tree : int array;  (* 1-based Fenwick array over touch slots *)
  mutable n : int;  (* touch slots used so far *)
  blocks : Packed.t;  (* packed block key -> block id *)
  mutable last : int array;  (* block id -> slot of its last touch *)
  hist : Flo_obs.Histogram.t;
  mutable cold : int;
}

(* powers-of-two buckets: reuse distances read directly against cache
   capacities in blocks, and 32 buckets span 2^31 distinct blocks *)
let create () =
  {
    tree = Array.make 64 0;
    n = 0;
    blocks = Packed.create ();
    last = Array.make 64 0;
    hist = Flo_obs.Histogram.create ~lo:1.0 ~gamma:2.0 ~buckets:32 ();
    cold = 0;
  }

(* 1-based usable slots; updates must propagate to every allocated ancestor
   (NOT just up to [t.n]: slots beyond the current length are queried later,
   once the stream grows past them) *)
let cap t = Array.length t.tree - 1

let update t i delta =
  let c = cap t in
  let i = ref i in
  while !i <= c do
    t.tree.(!i) <- t.tree.(!i) + delta;
    i := !i + (!i land - !i)
  done

(* growing reallocates, then replays the one marker per distinct block (at
   its last-touch slot) into the wider tree *)
let ensure t slot =
  if slot > cap t then begin
    let cap' = max slot (2 * cap t) in
    t.tree <- Array.make (cap' + 1) 0;
    for id = 0 to Packed.length t.blocks - 1 do
      update t t.last.(id) 1
    done
  end

(* number of "last touches" at slots <= i *)
let query t i =
  let i = ref i and acc = ref 0 in
  while !i > 0 do
    acc := !acc + t.tree.(!i);
    i := !i - (!i land - !i)
  done;
  !acc

let touch t ~file ~block =
  let key = Packed.block ~file ~block in
  let s = t.n + 1 in
  ensure t s;
  t.n <- s;
  let id = Packed.intern t.blocks key in
  if id >= Array.length t.last then t.last <- Packed.grow t.last id 0;
  (* slots are 1-based, so 0 marks a block not touched before *)
  let p = t.last.(id) in
  t.last.(id) <- s;
  if p = 0 then begin
    t.cold <- t.cold + 1;
    update t s 1;
    None
  end
  else begin
    let d = query t (s - 1) - query t p in
    update t p (-1);
    update t s 1;
    Flo_obs.Histogram.add t.hist (float_of_int d);
    Some d
  end

let touches t = t.n
let cold_touches t = t.cold
let distinct_blocks t = Packed.length t.blocks
let histogram t = t.hist

let reuses t = Flo_obs.Histogram.count t.hist

let below t threshold =
  if threshold < 0 then 0
  else begin
    let bounds = Flo_obs.Histogram.bounds t.hist in
    let counts = Flo_obs.Histogram.counts t.hist in
    let acc = ref 0 in
    Array.iteri
      (fun i b -> if b <= float_of_int threshold then acc := !acc + counts.(i))
      bounds;
    !acc
  end
