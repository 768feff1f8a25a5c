(** Hierarchical wall-time spans.

    A trace is opened with {!trace}; within it, {!with_span} nests timed
    sections into a tree. Like {!Metrics}, the active trace is
    domain-local: outside any [trace], [with_span] runs its thunk
    directly with no clock read, so instrumented library code costs
    nothing when tracing is off. Span timings are telemetry — two runs of
    the same seeded experiment produce the same tree {e shape} but not
    the same durations. *)

type t = {
  span_name : string;
  started_ns : int64;
      (** absolute monotonic start ({!Clock.now_ns} origin) — comparable
          across domains, so spans from a parallel sweep share a timeline *)
  elapsed_ns : int64;
  children : t list;  (** in execution order *)
}

(** [trace name f] runs [f] inside a fresh root span and returns its
    result together with the completed tree. Works under an enclosing
    [trace]: the new root is independent (not attached to the outer
    tree). *)
val trace : string -> (unit -> 'a) -> 'a * t

(** [with_span name f] times [f] as a child of the innermost open span.
    Without an open trace in this domain, behaves exactly like [f ()]. *)
val with_span : string -> (unit -> 'a) -> 'a

(** True when a trace is open in the calling domain. *)
val active : unit -> bool

(** Total number of spans in the tree (including the root). *)
val count : t -> int

(** Depth-first search for the first span with the given name. *)
val find : t -> string -> t option

(** [{"name": ..., "elapsed_ns": ..., "children": [...]}], children
    omitted when empty. *)
val to_json : t -> Json.t

(** Lossless codec: like {!to_json} but also carrying [started_ns], with
    [of_json_exact (to_json_exact t) = Ok t]. Used by {!Ncg_store} cell
    records so cached cells keep their span trees intact. *)
val to_json_exact : t -> Json.t

val of_json_exact : Json.t -> (t, string) result

(** Indented tree with millisecond durations, one span per line. *)
val to_markdown : t -> string
