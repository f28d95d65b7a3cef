type t = { emit : Event.t -> unit; flush : unit -> unit }

let null = { emit = (fun _ -> ()); flush = (fun () -> ()) }
let is_null t = t == null

let jsonl oc =
  {
    emit =
      (fun e ->
        output_string oc (Event.to_json e);
        output_char oc '\n');
    flush = (fun () -> flush oc);
  }

let with_jsonl path f =
  (* write to a side file and publish by rename: a process that dies
     mid-trace never leaves a truncated file at [path] — either the old
     contents survive or the finalized trace appears whole *)
  let tmp = path ^ ".part" in
  let oc = open_out tmp in
  (* close_out flushes; fall back to close_noerr so a full disk or a
     vanished file descriptor never masks the exception in flight *)
  let close () = try close_out oc with Sys_error _ -> close_out_noerr oc in
  (* durability, not just atomicity: force the temp file's bytes to disk
     before the rename publishes it, so a power loss right after the rename
     cannot leave a zero-length file under the final name *)
  let sync () =
    try
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc)
    with Sys_error _ | Unix.Unix_error _ -> ()
  in
  match f (jsonl oc) with
  | v ->
    sync ();
    close ();
    Sys.rename tmp path;
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    close ();
    (* [f] raised after emitting whole lines: still publish the prefix so a
       crashed run leaves a parseable trace at [path]; swallow rename
       failures here — the exception in flight is the real error *)
    (try Sys.rename tmp path with Sys_error _ -> ());
    Printexc.raise_with_backtrace e bt

let callback f = { emit = f; flush = (fun () -> ()) }
