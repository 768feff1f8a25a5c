(** The daemon's brain: jobs, cross-client dedup, worker health, and
    the persistent work queue, behind one mutex.

    A {e job} is one client submission: a {!Ncg.Sweep_spec.t} compiled
    to its cell list. On submit every cell is resolved in order of
    preference:

    + {b store hit} — the cell was computed by an earlier job (or an
      earlier daemon, or a one-shot [ncg_experiment] sweep over the
      same store): the cached result is attached
      immediately, no work is queued;
    + {b in-flight hit} — another job already queued the same cell
      (keys are content-addressed, so overlapping grids from different
      clients collide exactly when they should): this job is added to
      the cell's waiter list, no second computation is queued;
    + {b miss} — the cell is enqueued on the {!Ncg_store.Work_queue}.

    When a worker completes a cell, the result is inserted into the
    store {e once} and every waiting job receives it — which is why the
    store's [inserts] counter equals the number of distinct cells
    actually computed, the observable the dedup tests pin down.

    {b Fairness.} Leases are handed out round-robin across clients that
    have pending cells ({!lease} picks each ring client's oldest cell
    in turn), so a huge early submission no longer starves later small
    ones. Entries recovered from a previous daemon's log are credited
    to the pseudo-client ["(recovered)"].

    {b Worker health.} Every worker is tracked in a {!Worker_pool}:
    leases, completions and failures count toward per-worker stats;
    heartbeats ({!heartbeat}, or any lease/complete/fail) refresh
    [last_seen]. {!tick} runs the monitor: leases held by workers
    silent longer than the heartbeat timeout are durably reclaimed
    (charging the attempt), and workers accumulating consecutive
    failed/expired attempts are quarantined — their lease polls answer
    [Rejected] until the cooldown passes and they ping again.

    {b Cancellation.} {!cancel} detaches a job from every unresolved
    cell: queued cells nobody else waits for are dropped, leased ones
    have their lease revoked — the task's [revoked] flag trips the
    in-process computation's next {!Ncg_fault.Cancel} checkpoint, and
    remote owners learn from their next heartbeat reply.

    Failed attempts requeue until the entry's attempts exceed the retry
    budget, then the cell is {e quarantined}: waiters complete with a
    gap (clients report it and exit non-zero). A worker whose
    connection drops has all its leases requeued ({!worker_lost});
    leases held at daemon crash are reclaimed by
    {!Ncg_store.Work_queue.openfile} on restart — the same durable
    requeue path the runtime monitor uses ({!Ncg_store.Work_queue.reclaim}).

    All entry points lock the scheduler mutex; callers (connection
    handler threads, in-process worker domains) need no other
    coordination. The scheduler owns the only handles to the store and
    queue, so the store's single-process lock discipline is
    preserved — remote workers never open the store. *)

type t

type config = {
  store_dir : string;  (** store directory; [queue.log] lives inside it *)
  max_retries : int;  (** attempts allowed per cell = 1 + max_retries *)
  default_deadline_ms : int option;
      (** applied to submissions that carry no deadline *)
  max_cells : int option;  (** per-submission grid-size cap *)
  heartbeat_timeout_ms : int;
      (** reclaim leases from workers silent this long; [0] disables
          the monitor (in-process-only daemons need none) *)
  quarantine_failures : int;
      (** consecutive failed/expired attempts that quarantine a worker *)
  quarantine_cooldown_ms : int;
      (** quarantined workers may knock again (ping) after this long *)
}

(** Opens the store and the work queue. Queue entries recovered from a
    previous daemon run are {b dropped} (cancelled) rather than
    re-executed: their waiter jobs died with the old process, and
    completed cells are in the store anyway. *)
val create : config -> t

val close : t -> unit

(** Facts a submit reply carries. *)
type submit_info = {
  job : int;
  total : int;
  cached : int;  (** cells answered from the store *)
  deduped : int;  (** cells attached to in-flight computations *)
  queued : int;  (** cells newly enqueued *)
}

val submit :
  t -> client:string -> ?deadline_ms:int -> Ncg.Sweep_spec.t ->
  (submit_info, string) result

(** Job progress as response fields: [state] ("running" / "done" /
    "expired" / "cancelled"), [done], [total], [quarantined]. [None]
    for unknown jobs. *)
val status : t -> job:int -> (string * Ncg_obs.Json.t) list option

(** [results t ~job] when the job is done: CSV rows in grid order
    (quarantined cells omitted) plus [(alpha, k, error)] per quarantined
    cell. [Error] while running/expired/cancelled or for unknown jobs. *)
val results :
  t ->
  job:int ->
  (string list * (float * int * string) list, string) result

(** One leased task, self-contained: the worker recomputes the cell
    from [spec] + [cell] alone. *)
type task = {
  task_id : int;  (** queue entry id; echoed in complete/fail *)
  spec : Ncg.Sweep_spec.t;
  cell : Ncg.Experiment.cell;
  attempts : int;
  revoked : bool Atomic.t;
      (** set on cancellation — in-process executors pass it to
          [Ncg_fault.Cancel.with_control] so the next checkpoint
          abandons the cell *)
}

(** A lease poll's outcome: work, no work, or shed (quarantined
    worker — poll again after the cooldown, or keep pinging). *)
type grant = Granted of task | Empty | Rejected of { state : string }

(** [lease t ~worker] registers [worker] in the pool (a lease is a sign
    of life), passes the ["service.dispatch"] fault site, then leases
    the fairness pick. [~local:true] marks in-process domains, exempt
    from heartbeat expiry. *)
val lease : ?local:bool -> t -> worker:string -> grant

(** Register a worker in the pool before its first lease (the [hello]
    with [worker = true], or an in-process domain starting up). *)
val register_worker : ?local:bool -> t -> worker:string -> unit

(** [heartbeat t ~worker] records a ping: fires the
    ["service.heartbeat"] fault site (a raise drops the beat), then
    refreshes the worker's [last_seen], possibly readmitting it from
    quarantine. Returns the worker's pool state and any lease
    revocations queued for it (task ids whose computation it should
    abandon). *)
val heartbeat : t -> worker:string -> string * int list

(** [complete t ~worker ~task result_json] decodes the result, inserts
    it into the store, resolves every waiting job, and completes the
    queue entry. Rejects ids not leased to [worker] and undecodable
    results (the entry is requeued in the latter case). *)
val complete :
  t -> worker:string -> task:int -> Ncg_obs.Json.t -> (unit, string) result

(** [fail t ~worker ~task ~error] records a failed attempt: requeue
    while attempts remain, quarantine otherwise. Counts a strike
    against the worker. *)
val fail : t -> worker:string -> task:int -> error:string -> (unit, string) result

(** Requeue everything leased to [worker] (connection dropped) and mark
    it drained. Returns how many entries were requeued. *)
val worker_lost : t -> worker:string -> int

(** [cancel t ~job] fires the ["service.cancel"] fault site, then marks
    a running job cancelled and detaches it from every unresolved cell.
    Returns [(released, revoked)]: queued cells dropped and leases
    revoked. [Error] for unknown or already-terminal jobs. *)
val cancel : t -> job:int -> (int * int, string) result

(** Expire jobs whose deadline passed (their queued cells are released
    unless another live job waits on them), then run the heartbeat
    monitor: reclaim leases from silent workers and quarantine repeat
    offenders. Call periodically. *)
val tick : t -> unit

(** True when every submitted job is terminal {e and} the queue holds
    no pending or leased work — lets [ncg_served --drain] exit once the
    work is gone. *)
val idle : t -> bool

(** Stats fields for the [stats] verb: jobs, queue counts, store stats,
    per-worker health, request counters. *)
val stats_fields : t -> (string * Ncg_obs.Json.t) list

(** The store handle (the daemon owns the only one). *)
val store : t -> Ncg_store.Store.t
