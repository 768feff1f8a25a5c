(** Atomic whole-file writes for non-JSON artifacts.

    [write path contents] renders [contents] to a same-directory temp
    file, fsyncs, then renames over [path]. A crash at any point leaves
    either the previous file or the complete new one — never a torn
    artifact. {!Json.to_file} renders a JSON document and writes it
    through here. *)

val write : string -> string -> unit
