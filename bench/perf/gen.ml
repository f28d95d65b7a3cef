(* Seeded synthetic programs for the pass-compile workload.

   The suite's 16 programs were written by hand; these are inputs nobody
   wrote.  A program's shape — its array count (4-24), nest count (2-8) and
   whether it works on square or cubic spaces — follows its index, so every
   seed compiles the same amount of structure and the time per pass does
   not drift with the seed.  The seed picks the contents: edge lengths,
   which arrays each nest references and through which permutation of the
   loop indices, nest weights (1-6), and which arrays are opaque (~10%).
   Arrays and loops of one rank share one edge length, so every permuted
   reference is in range by construction. *)

open Flo_poly

let count = 64

let permutations n =
  let rec perms = function
    | [] -> [ [] ]
    | l -> List.concat_map (fun x -> List.map (List.cons x) (perms (List.filter (( <> ) x) l))) l
  in
  Array.of_list (List.map Array.of_list (perms (List.init n Fun.id)))

let perms2 = permutations 2
let perms3 = permutations 3

(* [a.(k) = i.(perm.(k))]: the suite's row-, column-, j- and k-major
   accesses are all of this form *)
let permuted ~array_id perm =
  let n = Array.length perm in
  Access.of_rows ~array_id
    (List.init n (fun k -> List.init n (fun c -> if c = perm.(k) then 1 else 0)))
    (List.init n (fun _ -> 0))

let program ~seed i =
  let prng = Flo_faults.Prng.for_stream ~seed ~stream:i in
  let pick a = a.(Flo_faults.Prng.int prng ~bound:(Array.length a)) in
  let arrays = 4 + (i * 5 mod 21) and nests = 2 + (i mod 7) in
  let rank = if i mod 2 = 0 then 2 else 3 in
  let edge = pick (if rank = 2 then [| 64; 128; 256 |] else [| 16; 32; 64 |]) in
  let perms = if rank = 2 then perms2 else perms3 in
  let decls =
    List.init arrays (fun id ->
        Program.declare ~opaque:(Flo_faults.Prng.float prng < 0.1) ~id
          ~name:(Printf.sprintf "a%d" id)
          (Data_space.make (Array.make rank edge)))
  in
  let space = Iter_space.make (Array.make rank (0, edge - 1)) in
  let nest k =
    (* every array is referenced by nest [id mod nests]; up to two extra
       references add the conflicting patterns Step I has to weigh, and a
       nest that owns no array gets one so that it is never empty *)
    let own = List.filter (fun id -> id mod nests = k) (List.init arrays Fun.id) in
    let extras = Flo_faults.Prng.int prng ~bound:3 + if own = [] then 1 else 0 in
    let extra = List.init extras (fun _ -> Flo_faults.Prng.int prng ~bound:arrays) in
    let refs = List.map (fun id -> permuted ~array_id:id (pick perms)) (own @ extra) in
    Loop_nest.make ~name:(Printf.sprintf "n%d" k)
      ~weight:(1 + Flo_faults.Prng.int prng ~bound:6)
      ~parallel_dim:0 space refs
  in
  Program.make ~name:(Printf.sprintf "gen-%02d" i) decls (List.init nests nest)

let corpus ~seed = List.init count (program ~seed)
