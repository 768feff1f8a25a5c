(** Content-addressed cache keys for sweep cells.

    A key fingerprints {e everything that determines a cell's output}:
    the store schema version (bumped whenever the serialized record
    format changes, invalidating every old record at once), plus the
    caller's fields — graph class, [n], [p], the cell's alpha and [k],
    trial count, dynamics configuration, and the cell seed
    ([Experiment.cell_seed_of_cell], a function of the sweep seed and
    the cell's alpha and [k]). Two keys are equal exactly when their
    canonical forms are byte-equal, so lookup is exact-match — no hash
    collisions can alias two different configurations.

    The canonical form is the compact JSON rendering of the field list
    with [("store_schema", Int schema_version)] prepended. Field {e
    order matters} (it is part of the bytes); callers must build the
    list deterministically. The 64-bit FNV-1a {!fingerprint} is a
    convenience for logs, never for lookup. *)

type t

(** Version of the record payload format. Bump on any incompatible
    change to what {!Store} clients serialize; old records then miss. *)
val schema_version : int

(** [make fields] builds the key. Fields must be renderable JSON
    (NaN/infinity floats serialize as [null] — avoid them in keys). *)
val make : (string * Ncg_obs.Json.t) list -> t

(** The canonical byte form (compact JSON). *)
val to_string : t -> string

val equal : t -> t -> bool
val compare : t -> t -> int

(** FNV-1a 64-bit hash of the canonical form. *)
val fingerprint : t -> int64

(** [fingerprint] as 16 lowercase hex digits. *)
val fingerprint_hex : t -> string
