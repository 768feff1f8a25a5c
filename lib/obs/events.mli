(** Structured JSONL event log and TTY-aware progress line.

    Each event is one compact JSON line:
    [{"ts_ns": ..., "severity": "info", "domain": 3, "event": "dynamics.move",
    ...fields}] — monotonic timestamp, severity, the emitting OCaml
    domain id, the event name, then the caller's fields. The sink is a
    single mutex-guarded channel shared by all domains, so lines from a
    parallel sweep interleave whole; ordering across domains is
    scheduling-dependent (sort by [ts_ns] to reconstruct), per-event
    content from a given cell is deterministic.

    Without a sink installed, {!emit} is one ref read — safe to call
    unconditionally from instrumented code. Use {!active} to skip
    building expensive fields. *)

type severity = Debug | Info | Warn | Error

(** True when a sink is installed. *)
val active : unit -> bool

(** [emit ~severity name fields] writes one JSONL line to the sink, if
    any. [severity] defaults to [Info]. *)
val emit : ?severity:severity -> string -> (string * Json.t) list -> unit

(** [with_file path f] installs a file sink for the duration of [f],
    then closes it (exception-safe). The log is written to a
    same-directory temp file and renamed to [path] on close, so [path]
    never holds a partial log; a crash leaves only the temp file. *)
val with_file : string -> (unit -> 'a) -> 'a

(** {1 Progress line}

    A single live status line on stderr ([\r]-overwritten, erased with
    [ESC\[K]). Enabled by default only when stderr is an interactive
    terminal — piped output and CI logs never see control characters. *)

(** Force the progress line on or off (e.g. off under [--quiet]). *)
val set_progress : bool -> unit

(** True when progress rendering is currently enabled. *)
val progress_enabled : unit -> bool

(** Overwrite the live status line (no-op when disabled). Safe to call
    from any domain. *)
val progress : string -> unit

(** Erase the status line, if one was drawn. Call before normal output
    resumes. *)
val progress_done : unit -> unit
