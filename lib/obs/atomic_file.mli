(** Atomic whole-file writes for non-JSON artifacts.

    [write path contents] renders [contents] to a same-directory temp
    file, fsyncs, then renames over [path]. A crash at any point leaves
    either the previous file or the complete new one — never a torn
    artifact. {!Json.to_file} renders a JSON document and writes it
    through here. *)

val write : string -> string -> unit

(** [append_line path line] appends [line] plus a newline to [path]
    (creating it if missing). Not atomic — a crash can tear the final
    line — but JSONL consumers skip unparseable lines, so an append-only
    history degrades gracefully rather than corrupting. *)
val append_line : string -> string -> unit
