(** Supervised work-queue executor.

    {!map} hands out task indices from a shared atomic queue, so a slow
    task never stalls a whole chunk; and instead of letting the first
    exception abort the map, every task failure is caught and
    {e quarantined} as a per-task [Error failure] while all other tasks
    still run to completion. Each task gets exactly one attempt: a task
    that is a pure function of its index fails the same way every time,
    so there is nothing to retry.

    A task runs under {!Cancel.with_control} with the given deadline and
    a cancellation flag watched by a dedicated {e watchdog domain}: when
    a task overruns the deadline the watchdog sets the flag and the
    task's next {!Cancel.checkpoint} raises — cancellation is
    cooperative, so a task that never checkpoints can only be cut off at
    its own deadline polls.

    Results are written into a per-index array, so the output order —
    and, given a deterministic task function, the full outcome vector
    including failures — is independent of [domains] and scheduling. A
    step budget ({!Cancel.with_step_budget}) counts checkpoints, not
    time, so the failures it causes are deterministic too. *)

type kind =
  | Timeout  (** {!Cancel.Timed_out}: watchdog, deadline or step budget *)
  | Interrupted
      (** {!Cancel.Interrupted}: process shutdown, or never started
          because of it *)
  | Crashed  (** any other exception *)

val kind_to_string : kind -> string

type failure = { index : int; kind : kind; exn_text : string; exn : exn }

(** [map ~domains f n] runs [f ~index] for every [index < n] over
    [domains] worker domains (the calling domain is worker 0) and
    returns the outcome vector in index order.

    - [deadline_ns]: per-task budget; enables the watchdog domain and
      the task-local {!Cancel} deadline.
    - [on_quarantine]: called from worker domains as each failure is
      recorded (the caller must be thread-safe; {!Ncg_obs.Progress} is).

    After {!Cancel.request_shutdown}, no new tasks start; tasks never
    started are reported as [Error] with [kind = Interrupted]. *)
val map :
  ?domains:int ->
  ?deadline_ns:int64 ->
  ?on_quarantine:(failure -> unit) ->
  (index:int -> 'a) ->
  int ->
  ('a, failure) result array
