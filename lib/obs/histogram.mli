(** Log-bucketed latency histograms for the hot oracles.

    HDR-style fixed buckets: boundaries grow by a factor of [sqrt 2] (two
    buckets per octave) from 100ns up to ~100s, plus an underflow and an
    overflow bucket — 62 buckets total, so a histogram is a few hundred
    bytes and merging is pointwise addition. Any recorded duration is
    located to within one bucket (~41% relative error), which is plenty to
    tell a 2µs best response from a 200ms one.

    Recording follows the {!Metrics} collector discipline: histograms only
    record while a domain-local collector is installed (see {!collect});
    otherwise {!record_ns} is a no-op and {!time} runs its thunk without
    touching the clock. Collectors never cross domains, so per-cell
    histograms in a parallel sweep depend only on the work the cell did.

    Determinism caveat: bucket {e placement} depends on measured wall
    time, so bucket counts differ run to run; the {e number of samples}
    per histogram ({!count}, {!counts_only}) is deterministic for
    deterministic work and is what the sweep bit-identity test compares. *)

type histogram

(** [register name] returns the histogram named [name], creating it on
    first use. Histograms are a {!Registry} (32 slots), with its
    init-time, main-domain-only contract. Raises [Invalid_argument] for
    an empty name, from a spawned domain, or when the registry is full. *)
val register : string -> histogram

val name : histogram -> string

(** {1 Built-in histograms} *)

val best_response : histogram  (** around [Best_response.compute] *)

val sum_best_response : histogram  (** around [Sum_best_response.improving] *)

val set_cover : histogram  (** around [Set_cover.solve] *)

val dynamics_round : histogram  (** one sample per dynamics round *)

val sweep_cell : histogram  (** one sample per sweep cell *)

(** {1 Bucket scheme} *)

(** Upper boundaries of the finite buckets, in ns: [round(100 * 2^(i/2))]
    for [i = 0 .. 60]. Bucket [0] is [\[0, 100ns)]; the last (overflow)
    bucket is unbounded. *)
val boundaries : int64 array

val bucket_count : int

(** [bucket_of_ns ns] is the index of the bucket containing [ns]. *)
val bucket_of_ns : int64 -> int

(** {1 Recording} *)

(** [record_ns h ns] adds one sample (clamped at 0) to [h] in the current
    domain's collector, if any. *)
val record_ns : histogram -> int64 -> unit

(** [time h f] runs [f] and records its wall time into [h]. Without a
    collector, exactly [f ()] — no clock read. If [f] raises, nothing is
    recorded. *)
val time : histogram -> (unit -> 'a) -> 'a

val recording : unit -> bool

(** {1 Collecting} *)

(** One frozen histogram: per-bucket counts plus total, sum and max. *)
type hist = { counts : int array; total : int; sum_ns : int64; max_ns : int64 }

(** Every registered histogram, in registration order (zero-sample
    histograms included, so snapshots have a stable shape). *)
type snapshot = (string * hist) list

val empty_hist : hist

(** [collect f] installs a fresh collector, runs [f], uninstalls it and
    returns [f]'s result with the recorded snapshot. Nests like
    {!Metrics.collect}: inner samples are folded into the enclosing
    collector on exit. *)
val collect : (unit -> 'a) -> 'a * snapshot

(** Pointwise bucket sum; [max_ns] is the max of the two. *)
val merge : snapshot -> snapshot -> snapshot

val total : snapshot list -> snapshot

(** {1 Queries} *)

val count : hist -> int
val sum_ns : hist -> int64
val max_ns : hist -> int64
val mean_ns : hist -> float

(** [percentile_ns h q] for [q] in [0,1]: the upper boundary of the
    bucket holding the [ceil (q * count)]-th smallest sample, clamped to
    the observed max — exact to within one sqrt(2) bucket, conservative
    (never under-reports), and never above {!max_ns}. [nan] when
    empty. *)
val percentile_ns : hist -> float -> float

val p50_ns : hist -> float
val p90_ns : hist -> float
val p99_ns : hist -> float

(** Human-friendly duration: ["1.23ms"], ["-"] for nan. *)
val pp_ns : float -> string

(** {1 Export} *)

(** Object keyed by histogram name; each value carries [count], [sum_ns],
    [max_ns], [p50_ns]/[p90_ns]/[p99_ns] and the nonzero [buckets] as
    [{le_ns, count}] pairs ([le_ns] null for the overflow bucket).
    Zero-sample histograms are dropped. *)
val to_json : snapshot -> Json.t

(** Table of count / p50 / p90 / p99 / max, zero-sample rows dropped. *)
val to_markdown : snapshot -> string

(** The deterministic projection: histogram name to sample count, for
    every registered histogram. Equal across [--domains] values for a
    fixed seed (bucket placement is not). *)
val counts_only : snapshot -> (string * int) list

(** {1 Exact codec}

    {!to_json} is a human-oriented export: it drops empty histograms and
    zero buckets. The exact codec is lossless —
    [of_json_exact (to_json_exact snap) = Ok snap] for any snapshot —
    and is what {!Ncg_store} cell records use, so a cached sweep cell
    restores bit-for-bit. [of_json_exact] rejects bucket arrays whose
    length differs from {!bucket_count} (a bucket-scheme change
    invalidates old records rather than misreading them). *)

val to_json_exact : snapshot -> Json.t
val of_json_exact : Json.t -> (snapshot, string) result
