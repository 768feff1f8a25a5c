(* TTY progress line: one live status line on stderr, redrawn in place.

   Auto-enabled only when stderr is an interactive terminal, so logs
   piped to files or CI never see control characters. --quiet forces it
   off. *)

let override =
  ref None
[@@lint.domain_local "set once from the main domain during CLI parsing, read-only after"]

let set_enabled enabled = override := Some enabled

let enabled () =
  match !override with
  | Some b -> b
  | None -> ( try Unix.isatty Unix.stderr with Unix.Unix_error _ -> false)

let mutex = Mutex.create ()

let dirty =
  ref false
[@@lint.domain_local "guarded by mutex"]

let update line =
  if enabled () then
    Mutex.protect mutex (fun () ->
        dirty := true;
        Printf.eprintf "\r%s\027[K%!" line)

let clear () =
  if enabled () then
    Mutex.protect mutex (fun () ->
        if !dirty then begin
          dirty := false;
          Printf.eprintf "\r\027[K%!"
        end)
