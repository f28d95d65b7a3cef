type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

(* the splitmix64 finalizer (Steele, Lea & Flood 2014) *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create ~seed = { state = mix (Int64.of_int seed) }

(* hash the seed, then offset by the stream id times an odd constant so
   substreams of one seed start far apart in the counter sequence *)
let origin ~seed ~stream =
  Int64.add (mix (Int64.of_int seed))
    (Int64.mul (Int64.of_int (stream + 1)) 0xD1342543DE82EF95L)

let for_stream ~seed ~stream = { state = origin ~seed ~stream }

let next_int64 t =
  t.state <- Int64.add t.state golden;
  mix t.state

(* splitmix64 is a counter-mode generator: draw k of a stream whose state
   starts at s0 is mix (s0 + (k+1)*golden), so any draw is addressable in
   O(1) without advancing shared state — tracing mints ids this way *)
let nth s0 k = mix (Int64.add s0 (Int64.mul (Int64.of_int (k + 1)) golden))

let at ~seed ~stream k =
  if k < 0 then invalid_arg "Prng.at: negative index";
  nth (origin ~seed ~stream) k

let float t =
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits *. 0x1.0p-53

let int t ~bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* rejection-free modulo is fine here: bounds are tiny (node counts) next
     to 2^64, so the bias is unobservable and determinism is what matters *)
  Int64.to_int (Int64.unsigned_rem (next_int64 t) (Int64.of_int bound))
