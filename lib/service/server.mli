(** The daemon's network plane.

    One thread accepts connections ([select] with a short timeout, so
    shutdown and job deadlines are polled); each accepted connection
    gets a handler thread speaking {!Protocol} request/response lines.
    In-process workers are spawned as domains, each looping
    lease → compute → complete against the shared {!Scheduler} — so a
    single [ncg_served] process is a complete sweep engine; external
    worker processes ([ncg_served --worker]) are optional extra
    capacity (and the thing the CI smoke test SIGKILLs).

    {b Event streaming.} [serve] installs a pipe as the global
    {!Ncg_obs.Events} sink: every structured event from any domain —
    scheduler decisions, sweep cells, per-round probe samples — is read
    back line-by-line by a pump thread, appended to [events_file] (if
    any) and fanned out to every subscribed connection. A subscriber
    ([ncg_top --events unix:PATH], [ncg_submit --subscribe]) therefore
    sees exactly the JSONL stream a one-shot run would write to its
    [--events] file, live. Slow or dead subscribers are dropped, never
    waited on.

    The ["service.accept"] fault site fires between [accept] and the
    handler handoff; an injected raise drops that connection (the
    client sees EOF) and the loop continues — connection-level fault
    drills without touching the scheduler. *)

type config = {
  addr : Protocol.addr;
  workers : int;  (** in-process worker domains (0 = none) *)
  worker_poll_ms : int;  (** idle worker sleep between lease attempts *)
  events_file : string option;  (** append every event line here too *)
  tick_ms : int;  (** deadline-check / shutdown-poll period *)
  drain : bool;
      (** exit once at least one job was submitted and all jobs are
          terminal and the queue is empty — CI smoke mode *)
}

(** [compute_cell ~cancel spec cell] is one attempt at a leased cell,
    shared by in-process worker domains and external worker processes:
    arm the installed fault plan with the cell's seed
    ({!Ncg.Sweep_spec.cell_seed}) as scope — the scope a one-shot sweep
    arms the same cell with — pass the ["sweep.cell"] fault site, then
    run the cell under a cancellation control wired to [cancel], so a
    revoked lease trips the next cooperative checkpoint. Returns the
    encoded cell payload, or the text of whatever exception (injected,
    revoked or real) failed the attempt. *)
val compute_cell :
  cancel:bool Atomic.t ->
  Ncg.Sweep_spec.t ->
  Ncg.Experiment.cell ->
  (Ncg_obs.Json.t, string) result

(** [listen addr] binds and listens. For a Unix address, a leftover
    socket file from a dead daemon is detected (probe connect) and
    replaced; a live one raises [Unix.Unix_error (EADDRINUSE, _, _)]. *)
val listen : Protocol.addr -> Unix.file_descr

(** [serve config scheduler fd] runs the accept loop until {!shutdown}
    is called (e.g. from a signal handler), or — with [config.drain] —
    until the work is done. Closes [fd], the worker domains and all
    connections before returning; the scheduler is left open (the
    caller closes it). *)
val serve : config -> Scheduler.t -> Unix.file_descr -> unit

(** Ask a running {!serve} to stop. Safe from signal handlers. *)
val shutdown : unit -> unit
