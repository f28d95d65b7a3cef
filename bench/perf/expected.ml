(* Expected modeled outputs: the text format of bench/perf/expected/*.txt.

   One output per line, [KEY VALUE]: the key runs to the first space and
   the value is the rest of the line, so verdict lines keep their spaces.
   Blank lines and lines starting with '#' are skipped.  Keys are unique. *)

type t = (string * string) list

let parse text =
  let rec go seen acc lineno = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      let line =
        if String.ends_with ~suffix:"\r" line then String.sub line 0 (String.length line - 1)
        else line
      in
      if line = "" || line.[0] = '#' then go seen acc (lineno + 1) rest
      else (
        match String.index_opt line ' ' with
        | None | Some 0 -> Error (Printf.sprintf "line %d: expected KEY VALUE" lineno)
        | Some i ->
          let key = String.sub line 0 i in
          let value = String.sub line (i + 1) (String.length line - i - 1) in
          if List.mem key seen then Error (Printf.sprintf "line %d: duplicate key %s" lineno key)
          else go (key :: seen) ((key, value) :: acc) (lineno + 1) rest)
  in
  go [] [] 1 (String.split_on_char '\n' text)

let render lines = String.concat "" (List.map (fun (k, v) -> k ^ " " ^ v ^ "\n") lines)

(* The first difference between an expected and an actual output list, as
   a message; [None] when they agree line for line. *)
let diff ~expected actual =
  let rec go = function
    | [], [] -> None
    | (k, v) :: _, [] -> Some (Printf.sprintf "missing %s (expected %s)" k v)
    | [], (k, v) :: _ -> Some (Printf.sprintf "unexpected %s %s" k v)
    | (ke, ve) :: e, (ka, va) :: a ->
      if ke <> ka then Some (Printf.sprintf "expected key %s, got %s" ke ka)
      else if ve <> va then Some (Printf.sprintf "%s: expected %s, got %s" ke ve va)
      else go (e, a)
  in
  go (expected, actual)
