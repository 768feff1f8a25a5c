(** Persistent, crash-safe key/value store for sweep-cell results.

    A store is a directory:

    {v
    DIR/
      records.log      CRC-framed append-only record log (Record_log)
      LOCK             advisory lock, held while a handle is open
    v}

    Records map a {!Cache_key} to an opaque payload (the serialized cell
    result). Appends are framed, written in one [write] and fsync'd, so
    a SIGKILL at any byte offset loses at most the record being written;
    on the next {!open_dir} the torn tail is truncated and every
    completed record is recovered. Re-inserting an existing key appends
    a new record that {e supersedes} the old one (last write wins on
    replay). A cell is a pure function of its key, so superseding
    records are rare (a recompute after an undecodable record) and the
    log is never rewritten.

    Lookups are exact-match on the key's canonical bytes. All operations
    are serialized by an internal mutex, so a parallel sweep may insert
    from several domains concurrently.

    Hits, misses, inserts and heals are counted both in {!stats}
    (always) and into the {!Ncg_obs.Metrics} counters [store.hits] /
    [store.misses] / [store.inserts] / [store.heals]
    (observed while a Metrics collector is installed in the calling
    domain). *)

type t

(** Raised by {!open_dir} when [dir/LOCK] is held by another open
    handle: two concurrent sweeps must not interleave appends into one
    log. [pid] is the holder ([-1] when it had not written its PID
    yet). *)
exception Locked of { dir : string; pid : int }

(** Lifetime-of-this-handle operation counts plus recovery facts. *)
type stats = {
  hits : int;
  misses : int;
  inserts : int;
  superseded : int;  (** dead records in the log (re-inserted keys) *)
  live : int;  (** distinct keys *)
  replayed : int;  (** records recovered at open *)
  dropped_bytes : int;  (** torn-tail bytes truncated at open *)
  heals : int;  (** in-place log reopens after a failed append *)
}

(** [open_dir ?sync dir] opens (creating directories as needed) the
    store at [dir] and replays the record log (repairing a torn tail).
    [sync] (default [true]) is passed to
    {!Record_log.openfile}.

    At most one handle per directory, in this process or any other:
    [open_dir] takes a kernel lock on [dir/LOCK] ([Unix.lockf]), held
    until {!close}. The kernel drops it when the holder dies — a SIGKILLed
    sweep never wedges the store — so there is no stale lock to sweep.
    The file itself outlives the lock and holds the last holder's PID.

    @raise Locked when another live process (or this one) already holds
    the store open.
    @raise Sys_error when [dir/records.log] exists but is not a record
    log. *)
val open_dir : ?sync:bool -> string -> t

(** [lookup t key] is the most recently inserted payload for [key]. *)
val lookup : t -> Cache_key.t -> string option

(** [insert t key payload] durably appends the record; visible to
    {!lookup} immediately, and to future opens as soon as the append
    completed.

    If the append fails partway (a write error), the store {e heals}
    before re-raising: the log is reopened in place, which truncates the
    torn frame, so the failure costs exactly the record being written
    and subsequent inserts proceed normally. Heals are counted in
    {!stats} and the [store.heals] metric. [torn_at] is
    {!Record_log.append}'s test hook, passed through so the tests can
    tear one insert. *)
val insert : ?torn_at:int -> t -> Cache_key.t -> string -> unit

val mem : t -> Cache_key.t -> bool

(** Number of distinct live keys. *)
val live_count : t -> int

(** Bytes currently occupied by the record log. *)
val log_size : t -> int

val stats : t -> stats

(** Close the log and release the lock. Further operations raise. *)
val close : t -> unit

(** [with_dir ?sync dir f] opens, runs [f], and closes (also on
    exceptions). *)
val with_dir : ?sync:bool -> string -> (t -> 'a) -> 'a

(** [stats_to_json] for telemetry export. *)
val stats_to_json : stats -> Ncg_obs.Json.t
