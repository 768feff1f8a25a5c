(* Blessed atomic text-file writer: same-directory temp + fsync + rename,
   so a crash at any point leaves either the old file or the new one —
   never a torn artifact. The only one in the tree: Json.to_file renders
   and calls it, and markdown reports use it directly. *)

let write path contents =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let oc = (open_out [@lint.allow "A1" "this IS the blessed atomic writer"]) tmp in
  (match
     output_string oc contents;
     flush oc;
     Unix.fsync (Unix.descr_of_out_channel oc)
   with
  | () -> close_out oc
  | exception e ->
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e);
  Sys.rename tmp path
