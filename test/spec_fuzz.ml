(* Totality laws for the spec grammars behind CLI flags: a parser fed
   straight from the command line must answer Ok or Error on any byte
   string, never raise. *)

(* arbitrary bytes, seed strings (valid specs, clause-shaped prefixes)
   with one byte replaced, deleted or inserted, and seeds with an
   arbitrary tail *)
let spec_bytes_gen seeds =
  let open QCheck.Gen in
  let byte = map Char.chr (int_bound 255) in
  let bytes n = string_size ~gen:byte (int_bound n) in
  let mutate (s, i, c, op) =
    let i = i mod (String.length s + 1) in
    let pre = String.sub s 0 i and post = String.sub s i (String.length s - i) in
    let tail = if post = "" then "" else String.sub post 1 (String.length post - 1) in
    match op with
    | 0 -> pre ^ String.make 1 c ^ post
    | 1 -> pre ^ tail
    | _ -> pre ^ String.make 1 c ^ tail
  in
  frequency
    [
      (2, bytes 48);
      (3, map mutate (quad (oneofl seeds) nat byte (int_bound 2)));
      (1, map2 ( ^ ) (oneofl seeds) (bytes 24));
    ]

let total_on_bytes ~name ~seeds parse =
  QCheck.Test.make ~count:1000 ~name
    (QCheck.make ~print:String.escaped (spec_bytes_gen seeds))
    (fun s -> match parse s with Ok _ | Error _ -> true)
