(** Central registry of the repo's [ncg.*/N] schema tags.

    Every versioned artifact (telemetry, store records, the bench
    baseline, lint reports) names its schema through this module
    — never as a local string literal — so an emit site and its parse
    site cannot skew across a version bump. The lint rule [R1]
    (docs/LINTING.md) enforces this mechanically: an exact schema-shaped
    string literal anywhere outside [lib/obs/schema.ml] is a violation.

    Removing a tag from the registry is a statement that no reader or
    writer references it any more. *)

val obs_timeseries : string
val obs_probes : string
val store_cell : string
val experiment_telemetry : string
val lint_report : string
val bench_baseline : string

(** Every registered tag. *)
val all : string list

(** [is_schema_shaped s] is [true] when [s] is exactly
    [ncg.<seg>(.<seg>)*/<digits>] with lowercase [a-z0-9_] segments —
    the literal shape the [R1] lint rule polices. *)
val is_schema_shaped : string -> bool

(** [registered s] is [List.mem s all]. *)
val registered : string -> bool
