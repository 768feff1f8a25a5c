(** Named round-level probes: registered signals that record into
    {!Timeseries} while a probe collector is installed.

    Probes are a {!Registry}, like {!Metrics} counters: registered
    once, at module-initialization time on the main domain, as the
    values below; code names a probe through its value, never a string.

    Collectors are domain-local: {!sample} is a single domain-local-storage
    read and a branch when no collector is installed, so probe points can
    stay in the dynamics inner loop unconditionally. A cell's series
    depend only on the samples its own trajectory pushed — deterministic
    under any domain fan-out.

    Unlike {!Metrics} collectors, probe collectors do {e not} fold into an
    enclosing collector on exit: a time series from an inner scope has no
    meaningful merge into an outer one, so nested [collect]s simply
    shadow the outer collector for their extent. *)

type probe

(** [register name] — {!Registry.register} on the probe registry
    (32 slots). Raises [Invalid_argument] for an empty name, off the main
    domain, or when the registry is full. *)
val register : string -> probe

(** The probe's registered name. *)
val name : probe -> string

(** All registered probe names, in registration order. *)
val names : unit -> string list

val find : string -> probe option

(** {1 Built-in probes}

    Sampled once per dynamics round (x = round number) of the exemplar
    trajectory; see {!Ncg_core.Dynamics}. *)

val social_cost : probe
(** social cost of the full profile after the round (NaN if the network
    disconnected) *)

val awake_players : probe
(** players whose best response was computed this round (the "awake
    set"); at least the round's movers *)

val br_gap_max : probe
(** largest view-local cost improvement accepted this round *)

val br_gap_total : probe
(** summed view-local cost improvements accepted this round *)

val move_edit_distance : probe
(** summed edit distance (|before Δ after|) of this round's moves *)

val move_locality_radius : probe
(** largest view distance of any newly bought edge this round *)

val set_cover_nodes : probe
(** set-cover branch-and-bound nodes expanded this round *)

val bb_cutoffs : probe
(** branch-and-bound lower-bound cutoffs this round (Max + Sum engines) *)

(** {1 Recording} *)

(** [sample p ~x y] pushes [(x, y)] into [p]'s series in the current
    domain's collector, if any. *)
val sample : probe -> x:float -> float -> unit

(** [sample_lazy p ~x f] evaluates [f] only when a collector is installed
    {e and} the series would retain the sample (see
    {!Timeseries.push_lazy}). *)
val sample_lazy : probe -> x:float -> (unit -> float) -> unit

(** True when a collector is installed in the calling domain. *)
val recording : unit -> bool

(** {1 Collecting} *)

(** A frozen probe valuation: every registered probe, in registration
    order, with its series (empty for probes never sampled — snapshots
    from the same binary always have the same shape). *)
type snapshot = (string * Timeseries.t) list

(** [collect ?capacity f] installs a fresh collector whose series hold at
    most [capacity] samples each (default 64 — the sweep's "default
    sampling"), runs [f], uninstalls it and returns [f]'s result with the
    recorded snapshot. *)
val collect : ?capacity:int -> (unit -> 'a) -> 'a * snapshot

(** The all-empty snapshot — what a probes-disabled cell stores, so the
    cell payload keeps one shape either way. *)
val empty_snapshot : ?capacity:int -> unit -> snapshot

(** Pointwise {!Timeseries.equal} (same probes, same order). *)
val equal_snapshot : snapshot -> snapshot -> bool

(** {1 JSON codec}

    Schema ["ncg.obs.probes/1"]: the collector capacity plus one
    {!Timeseries} document per probe that recorded at least one sample
    (never-sampled series are dropped, like {!Metrics.to_json} drops
    zeros). *)

val schema : string

val to_json : snapshot -> Json.t

(** Inverse of {!to_json}: dropped empty series are re-expanded over the
    registered probes in registration order (then unknown names in input
    order), so within one binary [of_json (to_json s)] restores [s]
    exactly ({!equal_snapshot}). A capacity below 2 is an [Error]. *)
val of_json : Json.t -> (snapshot, string) result
