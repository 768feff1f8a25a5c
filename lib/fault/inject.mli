(** Deterministic fault injection.

    Library code declares named {e fault sites} at module-initialization
    time and calls {!hit} (or {!short_write}) at the matching program
    point. By default every site is a no-op — one atomic read — so the
    hooks stay in production paths unconditionally, like
    {!Ncg_obs.Metrics} counters. A test, a CI job, or
    [ncg_experiment --fault-plan] can install a {e plan}: a seeded list
    of rules saying which sites misbehave, how (raise / delay /
    short-write), and when (always / on the Nth hit / every Nth hit /
    with probability p).

    {b Determinism.} Fault decisions never depend on scheduling. A plan
    only acts once it has been {e armed} in the current domain with
    {!arm}[ ~scope]; arming (re)creates every rule's hit counters and its
    SplitMix64 stream from [(plan.seed, site, rule index, scope)] alone.
    The supervised executor ({!Executor}) arms with the caller's scope
    for the task (a sweep passes the cell's seed) before the task runs,
    so the same plan, seed and scope always fire at the same hits, on
    any domain, for any [--domains]: a raise at a task's site drives
    that task into quarantine in every run.

    Unarmed domains (and all code outside the executor, e.g. cached-cell
    lookups on the calling domain) never fire, even with a plan
    installed. *)

type site

(** [site name] declares (or looks up) the fault site named [name].
    Sites are an {!Ncg_obs.Registry} (64 slots), with its init-time,
    main-domain-only contract. Raises [Invalid_argument] for an empty
    name, from a spawned domain, or when the registry is full. *)
val site : string -> site

val site_name : site -> string

(** Registered site names, in registration order. *)
val sites : unit -> string list

(** {1 Built-in sites}

    Wired into the library at the named program points. *)

val bfs : site  (** ["bfs.traverse"] — entry of [Bfs.distances_within] *)

val best_response : site
(** ["best_response.compute"] — entry of the exact MaxNCG search *)

val dynamics_round : site
(** ["dynamics.round"] — start of each best-response round *)

val sweep_cell : site
(** ["sweep.cell"] — start of each computed (non-cached) sweep cell *)

val record_log_append : site
(** ["record_log.append"] — inside [Record_log.append], between framing
    and the write; the only site where short-write rules act *)

(** {1 Plans} *)

type action =
  | Raise  (** raise {!Fault} at the site *)
  | Delay_ns of int64  (** sleep, then continue *)
  | Short_write of int
      (** write only the first [n] bytes (clamped to [len - 1]), then
          raise {!Fault}; ignored at sites probed with {!hit} *)

type trigger =
  | Always
  | Nth of int  (** fire exactly on the [n]-th hit since {!arm} *)
  | Every of int  (** fire on every [n]-th hit *)
  | Prob of float  (** fire with probability [p], seeded per scope *)

type rule = { site : string; action : action; trigger : trigger }

type plan = { seed : int; rules : rule list }

(** Raised by a firing [Raise] or [Short_write] rule. *)
exception Fault of { site : string; action : string }

(** [parse_plan ~seed spec] parses the [--fault-plan] syntax:
    comma-separated [SITE=ACTION\[@TRIGGER\]] rules where ACTION is
    [raise], [delay:MS] or [short:BYTES] and TRIGGER is [always]
    (default), [nth:N], [every:N] or [p:P]. Site names are validated
    against the registry. *)
val parse_plan : seed:int -> string -> (plan, string) result

(** Inverse of {!parse_plan} (modulo default triggers). *)
val plan_to_string : plan -> string

(** {1 Installing and arming} *)

(** [install plan] makes [plan] the process-wide plan. Call before
    spawning domains. *)
val install : plan -> unit

(** Remove the installed plan. Already-armed domains stay armed until
    they {!disarm} or re-{!arm}. *)
val clear : unit -> unit

val installed : unit -> plan option

(** [arm ~scope] arms the installed plan (if any) in the calling domain,
    resetting every rule's hit counter and re-seeding its stream from
    [(plan.seed, site, rule index, scope)]. With no plan installed this
    disarms. *)
val arm : scope:int -> unit

(** Disarm the calling domain. *)
val disarm : unit -> unit

(** True when the calling domain is armed. *)
val armed : unit -> bool

(** {1 Probing} *)

(** [hit s] fires any armed rules for [s]: [Raise] raises {!Fault},
    [Delay_ns] sleeps, [Short_write] is ignored. No-op when unarmed. *)
val hit : site -> unit

(** [short_write s ~len] is like {!hit}, but a firing [Short_write n]
    rule returns [Some (min n (len - 1))] (clamped to [0]): the number
    of bytes of the [len]-byte write the caller should perform before
    raising {!Fault} via {!short_write_fault}. *)
val short_write : site -> len:int -> int option

(** The exception a caller should raise after honouring a
    {!short_write} cut. *)
val short_write_fault : site -> exn
