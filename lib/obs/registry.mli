(** A closed namespace of registered names, each mapped to a dense slot
    index. {!Metrics} counters, {!Histogram}s and {!Probe}s are each one
    registry; their hot paths index collector arrays by the slot, never
    by name.

    {b Init-time-only contract.} A registry is plain unsynchronized
    state. {!register} is the only function that writes it, and it
    raises [Invalid_argument] when called from a spawned domain, so
    every registration happens on the main domain at module
    initialization time, before any fan-out. After that the registry is
    frozen and every read below is safe from any domain. *)

type t

(** [create what ~capacity] is an empty registry with [capacity] slots.
    [what] prefixes every [Invalid_argument] message (e.g.
    ["Metrics.register"]). *)
val create : string -> capacity:int -> t

(** [register t name] is [name]'s slot, allocating the next free one on
    first use; registering a name twice returns the same slot.
    Raises [Invalid_argument] for an empty name, when called from a
    spawned domain, or when all [capacity] slots are taken. *)
val register : t -> string -> int

(** The name registered at a slot. *)
val name : t -> int -> string

(** Registered names, in registration order. *)
val names : t -> string list

val find : t -> string -> int option

(** Number of registered names; slots are [0 .. count t - 1]. *)
val count : t -> int

val capacity : t -> int

(** {1 Snapshot helpers} *)

(** [merge t ~combine a b] is the union of two name-keyed snapshots,
    [combine]-ing the values of names present in both: registered names
    first, in registration order, then unknown names in input order
    ([a]'s before [b]'s), each once. *)
val merge :
  t -> combine:('a -> 'a -> 'a) -> (string * 'a) list -> (string * 'a) list ->
  (string * 'a) list

(** [expand t ~default fields] re-expands a snapshot a codec wrote with
    some entries dropped: every registered name in registration order,
    valued from [fields] or [default ()], then the unknown names of
    [fields] in input order. *)
val expand : t -> default:(unit -> 'a) -> (string * 'a) list -> (string * 'a) list
