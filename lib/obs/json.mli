(** Minimal JSON tree, serializer, parser and decoding accessors.

    Just enough for telemetry export ({!Metrics}, {!Span}, the
    [ncg_experiment --telemetry] document) and for reading back what the
    repo writes (store cells, telemetry, the bench baseline) without
    pulling in a JSON dependency.
    Numbers follow OCaml float formatting; NaN and infinities serialize
    as [null] so the output stays standard-compliant. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** Compact one-line rendering. *)
val to_string : t -> string

(** Two-space indented rendering, ending in a newline. *)
val to_string_pretty : t -> string

(** [to_file path json] writes the pretty rendering {e atomically}: the
    document is written to a same-directory temp file, fsync'd, and
    renamed over [path] — a crash at any point leaves either the old
    file or the complete new one, never a partial JSON artifact. *)
val to_file : string -> t -> unit

(** [of_string s] parses one JSON document (RFC 8259 grammar: escapes,
    [\uXXXX] with surrogate pairs decoded to UTF-8, exponents). Numbers
    containing ['.'], ['e'] or ['E'] parse as [Float], others as [Int]
    (falling back to [Float] on overflow). Used by the test suite to
    validate everything the emitters produce — escaping round-trips,
    store cells, telemetry — without an external JSON dependency.
    [Error msg] carries the failure offset. Never raises, whatever the
    input bytes (fuzz-tested on arbitrary and truncated strings). *)
val of_string : string -> (t, string) result

(** {1 Decoding}

    Every decoder in the repo is written with these accessors. An
    accessor returns the typed value or raises a decode error naming
    the path to the offending value (["runs[2].quality: expected a
    number"]); {!decode} is the one boundary that turns that error, and
    only that error, into [Error].

    The contract for a decoder built this way: on any [t] whatever, it
    returns [Ok _] or [Error "<what>: <path>: <reason>"] and never
    raises. Accessors never raise anything else, so a decoder keeps the
    contract as long as it checks the input before handing it to code
    that does raise (for example {!Timeseries.create} on a capacity
    below 2). Allocation failure is outside the contract. *)

(** [decode ~what f j] is [Ok (f j)], or [Error "what: path: reason"]
    (["what: reason"] at the root) when an accessor inside [f] fails.
    Any other exception passes through. *)
val decode : what:string -> (t -> 'a) -> t -> ('a, string) result

(** [fail fmt ...] raises a decode error at the current path. *)
val fail : ('a, unit, string, 'b) format4 -> 'a

(** [opt f j] is [Some (f j)], or [None] when [f] fails to decode —
    for readers that skip what they do not understand. *)
val opt : (t -> 'a) -> t -> 'a option

(** [nested of_json] runs a decoder that returns a [result] (another
    module's [of_json]) as an accessor; its [Error msg] becomes a decode
    error with reason [msg]. *)
val nested : (t -> ('a, string) result) -> t -> 'a

val int : t -> int
val bool : t -> bool
val string : t -> string

(** [Float] or [Int]. *)
val number : t -> float

(** {!number}, or [nan] for [Null] (the encoding of a non-finite float). *)
val number_or_null : t -> float

(** Each element through [f]; the path names the index. *)
val list : (t -> 'a) -> t -> 'a list

(** Each member of an object through [f], in document order; the path
    names the key. *)
val assoc : (t -> 'a) -> t -> (string * 'a) list

(** [field name f j] is [f] applied to member [name] of object [j] (the
    first one, if repeated). Fails when [j] is not an object or has no
    such member. *)
val field : string -> (t -> 'a) -> t -> 'a

(** [field_opt name f j] is [None] when object [j] has no member
    [name], else [Some] of {!field}. *)
val field_opt : string -> (t -> 'a) -> t -> 'a option

(** [schema tag j] checks that member ["schema"] of [j] is the string
    [tag]. *)
val schema : string -> t -> unit

(** [of_file path] reads and parses a whole file. [Error] carries the
    I/O error or ["path: parse error"]. *)
val of_file : string -> (t, string) result
