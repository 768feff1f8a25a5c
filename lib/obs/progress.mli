(** TTY-aware progress line.

    A single live status line on stderr ([\r]-overwritten, erased with
    [ESC\[K]). Enabled by default only when stderr is an interactive
    terminal — piped output and CI logs never see control characters. *)

(** Force the progress line on or off (e.g. off under [--quiet]). *)
val set_enabled : bool -> unit

(** True when progress rendering is currently enabled. *)
val enabled : unit -> bool

(** Overwrite the live status line (no-op when disabled). Safe to call
    from any domain. *)
val update : string -> unit

(** Erase the status line, if one was drawn. Call before normal output
    resumes. *)
val clear : unit -> unit
