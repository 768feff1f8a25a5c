(** Cooperative cancellation: deadlines, step budgets, shutdown.

    Long-running search loops (the dynamics round loop, the exact
    best-response radius search) call {!checkpoint} at their iteration
    boundaries. A checkpoint is cheap when nothing is armed — one atomic
    read plus one domain-local read — and raises when any of the
    installed limits has tripped:

    - {!Timed_out} when the supervising executor's watchdog flagged the
      task, the task's own deadline passed, or the per-move step budget
      ran out;
    - {!Interrupted} after {!request_shutdown} (the SIGINT/SIGTERM path
      of [ncg_experiment]).

    Controls are domain-local and scoped: {!with_control} installs a
    deadline and a cancellation flag for the duration of a task (the
    executor does this per task), {!with_step_budget} bounds the
    number of checkpoints inside it (the dynamics engine does this per
    player move). *)

(** Raised by {!checkpoint}; the payload says which limit tripped
    (["watchdog"], ["deadline"], ["step budget exhausted"]). *)
exception Timed_out of string

(** Raised by {!checkpoint} after {!request_shutdown}; the payload is
    the OCaml signal number. *)
exception Interrupted of int

(** [with_control ?timeout_ns ?cancel f] runs [f] with a fresh control
    installed in the calling domain: an absolute deadline [timeout_ns]
    from now (if given) and an external cancellation flag (if given —
    the executor's watchdog sets it). Restores the previous control on
    exit. *)
val with_control :
  ?timeout_ns:int64 -> ?cancel:bool Atomic.t -> (unit -> 'a) -> 'a

(** [with_step_budget n f] runs [f] allowing at most [n] checkpoints;
    the [n+1]-th raises [Timed_out "step budget exhausted"] and
    increments the ["dynamics.step_budget_hits"] counter. [n <= 0] means
    unlimited. Nests inside {!with_control} (shares its control) and
    restores the enclosing budget on exit.

    On exit, normal or not, it adds the checkpoints made under the
    budget to ["dynamics.move_steps"]: n checkpoints that pass count n,
    a trip counts one more, and so does a deadline raise. A watchdog
    raise is not counted. In nested budgets each checkpoint counts
    once, into the innermost budget; the enclosing one neither counts
    nor spends it. An unlimited budget installs nothing, so it counts
    0 and its checkpoints spend the enclosing budget, if any. *)
val with_step_budget : int -> (unit -> 'a) -> 'a

(** Poll every installed limit; raise {!Timed_out} / {!Interrupted} when
    one has tripped, return unit otherwise. While a step budget is
    active, each call spends one of its steps. *)
val checkpoint : unit -> unit

(** {1 Process shutdown}

    A process-wide flag for signal handlers: once set, every
    {!checkpoint} in every domain raises {!Interrupted}, and
    {!Executor.map} stops dispensing tasks. *)

val request_shutdown : int -> unit

(** The signal passed to {!request_shutdown}, if any. *)
val shutdown_requested : unit -> int option

(** Clear the shutdown flag (tests). *)
val reset_shutdown : unit -> unit

(** {1 Counters}

    Registered in {!Ncg_obs.Metrics} at init time. *)

val move_steps : Ncg_obs.Metrics.counter
(** ["dynamics.move_steps"] — checkpoints counted under a step budget,
    added when the budget exits *)

val step_budget_hits : Ncg_obs.Metrics.counter
(** ["dynamics.step_budget_hits"] — budgets that ran out *)
