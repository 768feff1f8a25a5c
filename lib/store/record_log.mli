(** Append-only record log with CRC-framed records and torn-tail recovery.

    The persistence primitive under {!Store}: a single file holding an
    8-byte magic header followed by framed records. Each record is

    {v
    +----------------+----------------+------------------+
    | length u32 LE  | crc32 u32 LE   | payload bytes    |
    +----------------+----------------+------------------+
    v}

    where [crc32] is the CRC-32 ({!Crc32}) of the payload. An append is
    one [write] of the whole frame followed (by default) by an [fsync],
    so after a crash the file is a sequence of complete records plus at
    most one torn frame at the tail.

    {b Recovery.} {!openfile} scans the file from the start and stops at
    the first frame that is incomplete, fails its checksum, or declares
    an impossible length; the file is then truncated back to the end of
    the last valid record, so a crashed writer never poisons future
    appends. Recovery therefore keeps the longest valid prefix — exactly
    the records whose append completed.

    A log handle is not thread-safe; callers ({!Store}) serialize access. *)

type t

(** Result of the opening scan. *)
type recovery = {
  replayed : int;  (** complete records handed to [replay] *)
  dropped_bytes : int;
      (** bytes truncated from a torn or corrupt tail (0 for a clean file) *)
}

(** [openfile ?sync path ~replay] opens (creating if necessary) the log
    at [path], streams every valid record through [replay] in append
    order, repairs the tail as described above, and positions the handle
    for appending. [sync] (default [true]) controls whether {!append}
    fsyncs; with [false] appends are buffered by the OS (faster, but a
    crash may lose recent records — they are still framed, so recovery
    stays safe).

    @raise Sys_error if [path] exists but does not start with this log's
    magic bytes (it is some other file — refusing beats truncating it). *)
val openfile : ?sync:bool -> string -> replay:(string -> unit) -> t * recovery

(** [append t payload] writes one framed record and (if [sync]) fsyncs.

    After a failed append the handle is {e poisoned}: further appends
    raise, because the on-disk tail is unknown and writing after it
    would corrupt the log. Reopening the file recovers (truncates the
    torn tail) as usual; {!Store} does this automatically.

    [torn_at] is a test hook, for the recovery tests only: write just
    the first [torn_at] bytes of the frame (clamped to [0 .. len - 1])
    — a genuine torn tail on disk, byte-for-byte what a crash mid-write
    leaves — poison the handle and raise [Failure], as a failed write
    would.

    @raise Invalid_argument on a payload larger than {!max_payload} or
    on a poisoned handle. *)
val append : ?torn_at:int -> t -> string -> unit

(** True once an append has failed on this handle. *)
val poisoned : t -> bool

(** Force buffered appends to disk (no-op when [sync] is on). *)
val sync : t -> unit

val path : t -> string

(** Current file size in bytes (header + all records). *)
val size : t -> int

val close : t -> unit

(** Records larger than this (64 MiB) are rejected on append and treated
    as corruption on recovery — a fence against a corrupt length field
    asking the replayer to allocate gigabytes. *)
val max_payload : int
