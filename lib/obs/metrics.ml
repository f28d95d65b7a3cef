type t = { tbl : (string * (string * string) list, Histogram.t) Hashtbl.t }

let create () = { tbl = Hashtbl.create 32 }

let key name labels = (name, List.sort compare labels)

let histogram t ?(labels = []) ?lo ?gamma ?buckets name =
  let key = key name labels in
  match Hashtbl.find_opt t.tbl key with
  | Some h -> h
  | None ->
    let h = Histogram.create ?lo ?gamma ?buckets () in
    Hashtbl.replace t.tbl key h;
    h

let find_histogram t ?(labels = []) name = Hashtbl.find_opt t.tbl (key name labels)

let to_list t =
  Hashtbl.fold (fun (name, labels) h acc -> (name, labels, h) :: acc) t.tbl []
  |> List.sort (fun (n1, l1, _) (n2, l2, _) -> compare (n1, l1) (n2, l2))
