(** Named counters for the experiment pipeline's hot paths.

    Counters only record while a {e collector} is installed in the current
    domain (see {!collect}); otherwise {!incr}/{!add} are a single
    domain-local-storage read and a branch — cheap enough to leave in BFS
    and branch-and-bound inner loops unconditionally. Collectors are
    domain-local, so parallel sweep cells each count into their own
    collector and the per-cell numbers are deterministic regardless of
    how cells are scheduled over domains.

    Nesting composes: when [collect] runs inside an outer [collect], the
    inner counts are folded into the outer collector on exit, so a
    whole-sweep collector still sees everything its cells did. *)

type counter

(** [register name] returns the counter named [name], creating it on
    first use. Counters are a {!Registry} (128 slots): call at module
    initialization time from the main domain, as all built-ins below do.
    Raises [Invalid_argument] for an empty name, from a spawned domain,
    or when the registry is full. *)
val register : string -> counter

(** The counter's registered name. *)
val name : counter -> string

(** {1 Built-in counters}

    Incremented by the instrumented library code. *)

val bfs_calls : counter  (** [Ncg_graph.Bfs] traversals started *)

val view_extracts : counter  (** [View.extract] calls (ball + ownership) *)

val set_cover_solves : counter  (** exact/budgeted [Set_cover.solve] calls *)

val set_cover_nodes : counter  (** branch-and-bound nodes expanded *)

val set_cover_cutoffs : counter  (** lower-bound prunes in [Set_cover.solve] *)

val set_cover_greedy : counter  (** greedy warm starts / greedy solves *)

val set_cover_root_decided : counter
(** [Set_cover.solve] calls decided by its root triage, with no search *)

val set_cover_budget_exhausted : counter
(** [Set_cover.solve] calls whose search stopped on [node_budget] *)

val best_response_calls : counter  (** [Best_response.compute] invocations *)

val best_response_radii : counter  (** dominating-set radii (h values) tried *)

val sum_best_response_calls : counter  (** [Sum_best_response.improving] calls *)

val sum_bb_nodes : counter  (** SumNCG branch-and-bound nodes expanded *)

val sum_bb_cutoffs : counter  (** SumNCG lower-bound prunes *)

val dynamics_rounds : counter  (** completed best-response rounds *)

val dynamics_moves : counter  (** accepted strategy changes *)

(** {1 Recording} *)

(** [incr c] adds 1 to [c] in the current domain's collector, if any. *)
val incr : counter -> unit

(** [add c n] adds [n]. *)
val add : counter -> int -> unit

(** True when a collector is installed in the calling domain. *)
val recording : unit -> bool

(** [read c] is [c]'s count in the current domain's collector (0 when no
    collector is installed). Round-level probes use deltas of [read] to
    attribute solver effort to individual dynamics rounds. *)
val read : counter -> int

(** {1 Collecting} *)

(** A frozen counter valuation: every registered counter, in registration
    order, with its count (zeros included, so snapshots from the same
    binary always have the same shape). *)
type snapshot = (string * int) list

(** [collect f] installs a fresh collector, runs [f], uninstalls it and
    returns [f]'s result with the counts recorded during the call. If a
    collector was already installed, the counts are also added to it. *)
val collect : (unit -> 'a) -> 'a * snapshot

(** Pointwise sum; counters missing from one operand count as 0. *)
val merge : snapshot -> snapshot -> snapshot

(** [total []] is the all-zero snapshot. *)
val total : snapshot list -> snapshot

(** Snapshot as a JSON object, counter name to count, zeros dropped. *)
val to_json : snapshot -> Json.t

(** Inverse of {!to_json}: dropped zeros are re-expanded over the
    registered counters in registration order (then unknown names in
    input order), so within one binary
    [of_json (to_json snap) = Ok snap] for any [collect] snapshot. Used
    to restore cached sweep cells from {!Ncg_store}. *)
val of_json : Json.t -> (snapshot, string) result

(** Two-column markdown table, zeros dropped. *)
val to_markdown : snapshot -> string
