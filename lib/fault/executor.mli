(** Supervised work-queue executor.

    Unlike {!Ncg_util.Parallel}'s static contiguous chunking, {!map}
    hands out task indices from a shared atomic queue, so a slow or
    retried task never stalls a whole chunk; and instead of letting the
    first exception abort the map, every task failure is caught,
    retried, and ultimately {e quarantined} as a per-task
    [Error failure] while all other tasks still run to completion.

    Per attempt, a task runs under {!Cancel.with_control} with the given
    deadline and a cancellation flag watched by a dedicated {e watchdog
    domain}: when an attempt overruns the deadline the watchdog sets the
    flag and the task's next {!Cancel.checkpoint} raises — cancellation
    is cooperative, so a task that never checkpoints can only be cut off
    at its own deadline polls.

    Retries use a deterministic linear backoff ([backoff_ns * attempt])
    — a schedule, not jitter — and {!Cancel.Interrupted} (shutdown) is
    never retried. Fault injection composes: each task is armed with
    [Inject.arm ~scope:(scope index)] before its first attempt and
    disarmed after its last, with hit counters persisting across
    retries (see {!Inject}).

    Results are written into a per-index array, so the output order —
    and, given a deterministic task function and fault plan, the full
    outcome vector including failures — is independent of [domains] and
    scheduling. *)

type kind =
  | Timeout  (** {!Cancel.Timed_out}: watchdog, deadline or step budget *)
  | Interrupted  (** {!Cancel.Interrupted}: process shutdown *)
  | Crashed  (** any other exception, including {!Inject.Fault} *)

val kind_to_string : kind -> string

type failure = {
  index : int;
  attempts : int;  (** attempts made; 0 = never started (shutdown) *)
  kind : kind;
  exn_text : string;
  exn : exn;
}

type event =
  | Attempt_started of { index : int; attempt : int }
  | Attempt_failed of {
      index : int;
      attempt : int;
      kind : kind;
      exn_text : string;
      will_retry : bool;
    }
  | Quarantined of failure

(** [map ~domains ~scope f n] runs [f ~index ~attempt] for every
    [index < n] over [domains] worker domains (the calling domain is
    worker 0, as in {!Ncg_util.Parallel}) and returns the outcome
    vector in index order.

    - [max_retries] (default 0): extra attempts after the first
      failure; attempt numbers start at 1.
    - [backoff_ns] (default 0): sleep [backoff_ns * attempt] before
      retry number [attempt + 1].
    - [deadline_ns]: per-attempt budget; enables the watchdog domain
      and the task-local {!Cancel} deadline.
    - [scope index]: the fault-injection scope task [index] is armed
      with. A sweep passes each cell's seed, so a cell's faults do not
      depend on its position in this particular map.
    - [on_event]: called from worker domains as attempts start, fail,
      and quarantine (the caller must be thread-safe; {!Ncg_obs.Events}
      is).

    After {!Cancel.request_shutdown}, no new tasks or retries start;
    tasks never started are reported as [Error] with [attempts = 0] and
    [kind = Interrupted]. *)
val map :
  ?domains:int ->
  ?max_retries:int ->
  ?backoff_ns:int64 ->
  ?deadline_ns:int64 ->
  ?on_event:(event -> unit) ->
  scope:(int -> int) ->
  (index:int -> attempt:int -> 'a) ->
  int ->
  ('a, failure) result array
