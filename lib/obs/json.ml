(* The one JSON codec: the tree, a total recursive-descent parser, the
   escaper, the exact number writers, the compact printer, decoder
   combinators, and the atomic file writer every saved document goes
   through. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse of string

let fail fmt = Printf.ksprintf (fun m -> raise (Parse m)) fmt

(* Real documents nest at most 5 containers (the bench history); a sampled
   trace spends two levels per span, so 64 still holds 32-deep span trees *)
let max_depth = 64

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\r' | '\n' -> true | _ -> false)
    do
      incr pos
    done
  in
  let at c = !pos < n && s.[!pos] = c in
  let expect c =
    skip_ws ();
    if at c then incr pos else fail "expected '%c' at offset %d" c !pos
  in
  let hex4 i =
    if i + 4 > n then fail "truncated \\u escape at offset %d" i;
    let v = ref 0 in
    for k = i to i + 3 do
      let d =
        match s.[k] with
        | '0' .. '9' as c -> Char.code c - 48
        | 'a' .. 'f' as c -> Char.code c - 87
        | 'A' .. 'F' as c -> Char.code c - 55
        | _ -> fail "malformed \\u escape at offset %d" i
      in
      v := (!v lsl 4) lor d
    done;
    !v
  in
  (* [pos] is just past a "\u"; a high surrogate followed by an escaped low
     surrogate combines into one code point, any other surrogate is lone *)
  let unicode_escape b =
    let start = !pos - 2 in
    let hi = hex4 !pos in
    pos := !pos + 4;
    let cp =
      if hi >= 0xD800 && hi <= 0xDBFF && !pos + 1 < n && s.[!pos] = '\\'
         && s.[!pos + 1] = 'u'
      then begin
        let lo = hex4 (!pos + 2) in
        pos := !pos + 6;
        if lo >= 0xDC00 && lo <= 0xDFFF then
          0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
        else hi
      end
      else hi
    in
    if cp >= 0xD800 && cp <= 0xDFFF then fail "lone surrogate at offset %d" start;
    Buffer.add_utf_8_uchar b (Uchar.of_int cp)
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> ()
      | '\\' ->
        if !pos >= n then fail "unterminated string";
        let e = s.[!pos] in
        incr pos;
        (match e with
        | '"' | '\\' | '/' -> Buffer.add_char b e
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'u' -> unicode_escape b
        | _ -> fail "invalid escape at offset %d" (!pos - 2));
        go ()
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    while
      !pos < n
      && (match s.[!pos] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false)
    do
      incr pos
    done;
    if !pos = start then fail "unexpected character at offset %d" start;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "malformed number at offset %d" start
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail "unexpected token at offset %d" !pos
  in
  (* the elements of one array or object, read by [item]; [depth] counts the
     containers enclosing it *)
  let container depth close item =
    if depth >= max_depth then fail "nesting deeper than %d at offset %d" max_depth !pos;
    incr pos;
    skip_ws ();
    if at close then begin
      incr pos;
      []
    end
    else
      let rec items acc =
        let acc = item () :: acc in
        skip_ws ();
        if at ',' then begin
          incr pos;
          items acc
        end
        else if at close then begin
          incr pos;
          List.rev acc
        end
        else fail "expected ',' or '%c' at offset %d" close !pos
      in
      items []
  in
  let rec value depth =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match s.[!pos] with
    | '"' -> Str (string_lit ())
    | '{' ->
      Obj
        (container depth '}' (fun () ->
             let k = string_lit () in
             expect ':';
             (k, value (depth + 1))))
    | '[' -> Arr (container depth ']' (fun () -> value (depth + 1)))
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> Num (number ())
  in
  let v = value 0 in
  skip_ws ();
  if !pos <> n then fail "trailing garbage at offset %d" !pos;
  v

let needs_escape = function '"' | '\\' | '\x00' .. '\x1f' -> true | _ -> false
let hex_digits = "0123456789abcdef"

let escape s =
  if not (String.exists needs_escape s) then s
  else begin
    let b = Buffer.create (String.length s + 16) in
    String.iter
      (function
        | ('"' | '\\') as c ->
          Buffer.add_char b '\\';
          Buffer.add_char b c
        | '\x00' .. '\x1f' as c ->
          Buffer.add_string b "\\u00";
          Buffer.add_char b hex_digits.[Char.code c lsr 4];
          Buffer.add_char b hex_digits.[Char.code c land 15]
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b
  end

(* -- number writers ----------------------------------------------------- *)

(* digits of [n <= 0], most significant first: negating a non-positive int
   never overflows, so min_int needs no special case *)
let rec add_neg_digits b n =
  if n <= -10 then add_neg_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))

let add_int b n =
  if n < 0 then begin
    Buffer.add_char b '-';
    add_neg_digits b n
  end
  else add_neg_digits b (-n)

let add_fixed3 b x =
  let bits = Int64.bits_of_float x in
  let biased = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7ff in
  (* 1073 = 1023 + 50: non-finite values and |x| >= 2^50 take printf *)
  if biased >= 1073 then Printf.bprintf b "%.3f" x
  else begin
    (* |x| = m * 2^e exactly, so 1000|x| = 125m * 2^(e+3), where 125m < 2^60
       and e + 3 <= 0: shift right by [sh], rounding half to even on the
       exact remainder as printf does *)
    let frac = Int64.to_int bits land 0xF_FFFF_FFFF_FFFF in
    (* subnormals (biased 0) have biased 1's scale and no hidden bit *)
    let m = if biased = 0 then frac else frac lor 0x10_0000_0000_0000 in
    let e = max biased 1 - 1075 in
    let v = 125 * m and sh = -(e + 3) in
    let n =
      if sh = 0 then v
      else if sh >= 61 then 0 (* v < 2^60 <= half: rounds to zero *)
      else begin
        let q = v lsr sh and rem = v land ((1 lsl sh) - 1) and half = 1 lsl (sh - 1) in
        if rem > half || (rem = half && q land 1 = 1) then q + 1 else q
      end
    in
    if Float.sign_bit x then Buffer.add_char b '-';
    add_neg_digits b (-(n / 1000));
    Buffer.add_char b '.';
    let d = n mod 1000 in
    Buffer.add_char b (Char.unsafe_chr (48 + (d / 100)));
    Buffer.add_char b (Char.unsafe_chr (48 + (d / 10 mod 10)));
    Buffer.add_char b (Char.unsafe_chr (48 + (d mod 10)))
  end

let add_hex64 b id =
  for i = 15 downto 0 do
    Buffer.add_char b
      hex_digits.[Int64.to_int (Int64.shift_right_logical id (4 * i)) land 15]
  done

let num_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let to_string t =
  let b = Buffer.create 256 in
  let quoted s =
    Buffer.add_char b '"';
    Buffer.add_string b (escape s);
    Buffer.add_char b '"'
  in
  let seq op cl f items =
    Buffer.add_char b op;
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        f x)
      items;
    Buffer.add_char b cl
  in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (string_of_bool v)
    | Num f -> Buffer.add_string b (num_to_string f)
    | Str s -> quoted s
    | Arr items -> seq '[' ']' go items
    | Obj fields ->
      seq '{' '}'
        (fun (k, v) ->
          quoted k;
          Buffer.add_char b ':';
          go v)
        fields
  in
  go t;
  Buffer.contents b

(* -- decoding ---------------------------------------------------------- *)

let str = function Str s -> s | _ -> fail "expected a string"
let num = function Num f -> f | _ -> fail "expected a number"

let int = function
  | Num f when Float.is_integer f && Float.abs f < 0x1p62 -> Float.to_int f
  | _ -> fail "expected an integer"

let bool = function Bool b -> b | _ -> fail "expected a bool"
let list conv = function Arr items -> List.map conv items | _ -> fail "expected an array"
let member name = function Obj kvs -> List.assoc_opt name kvs | _ -> None

let field_opt name conv = function
  | Obj kvs -> (
    match List.assoc_opt name kvs with
    | None -> None
    | Some v -> ( try Some (conv v) with Parse m -> fail "field %S: %s" name m))
  | _ -> fail "expected an object"

let field name conv obj =
  match field_opt name conv obj with
  | Some v -> v
  | None -> fail "missing field %S" name

let decode conv s = match conv (parse s) with v -> Ok v | exception Parse m -> Error m

(* -- atomic files ------------------------------------------------------- *)

let side_file path = path ^ ".tmp"

let write_atomic path f =
  let tmp = side_file path in
  let oc = open_out_bin tmp in
  match
    f oc;
    flush oc;
    (* durable, not just atomic: the bytes reach the disk before the rename
       publishes them, so a power loss cannot leave an empty [path] *)
    (try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ());
    close_out oc;
    Sys.rename tmp path
  with
  | () -> ()
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    Printexc.raise_with_backtrace e bt

let probe_writable path =
  (* the side file would open, but the rename onto a directory fails *)
  if Sys.file_exists path && Sys.is_directory path then raise (Sys_error "Is a directory");
  let tmp = side_file path in
  close_out (open_out_bin tmp);
  Sys.remove tmp
