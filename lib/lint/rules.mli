(** The rule catalogue of [ncg_lint] (see docs/LINTING.md).

    Each rule mechanizes one convention the reproducibility story already
    relies on: determinism (D1–D4), parallel safety (P1/P2), artifact
    atomicity (A1), scratch-buffer ownership (S1) and schema-tag
    hygiene (R1). L1
    polices the suppression annotations themselves; L2 polices their
    staleness.

    Every rule but L2 is checked on the Typedtree by {!Typed_lint}; L2 is
    judged when the per-file reports are folded together
    ({!Report.merge}). *)

type id =
  | D1  (** no [Random.*] outside lib/prng *)
  | D2  (** no [Unix.gettimeofday]/[Unix.time]/[Sys.time] outside lib/obs *)
  | D3  (** no [Hashtbl.iter]/[Hashtbl.fold] (hash-order iteration) *)
  | D4  (** no [string_of_float]/bare [%f] (lossy float formatting) *)
  | P1  (** top-level mutable state must be synchronized or annotated *)
  | P2  (** closures crossing a domain boundary must not capture plain
            mutable state *)
  | A1  (** no bare [open_out]; artifact writes go through atomic helpers *)
  | S1  (** borrowed scratch views must not escape their lender *)
  | R1  (** [ncg.*/N] schema literals live only in the registry *)
  | L1  (** lint annotations must name a rule and justify themselves *)
  | L2  (** a suppression whose rule no longer fires is stale
            (report-merge only) *)

(** Every rule, in catalogue order. *)
val all : id list

val to_string : id -> string
val of_string : string -> id option

(** One-line human name, e.g. ["stdlib randomness outside lib/prng"]. *)
val title : id -> string

(** The repo contract the rule guards (shown in the JSON report). *)
val contract : id -> string

(** Fix hint appended to every violation of the rule. *)
val hint : id -> string
