(** Reusable experiment harness behind Tables I–II and Figures 5–10.

    Builds seeded initial configurations (uniform random trees or
    connected G(n,p) with fair-coin edge ownership — the paper's setup),
    runs the round-robin dynamics, and aggregates per-trial statistics
    into mean ± 95% CI summaries. Every entry point takes a [seed];
    trial [i] uses an independent stream split from it, so any data point
    is reproducible in isolation. *)

(** The α grid of Section 5.1. *)
val paper_alphas : float list

(** The k grid of Section 5.1; 1000 plays the full-knowledge game. *)
val paper_ks : int list

(** [initial_tree ~seed ~n] is a uniform random tree with random edge
    ownership. *)
val initial_tree : seed:int -> n:int -> Strategy.t

(** [initial_gnp ~seed ~n ~p] resamples G(n,p) until connected, then
    assigns random ownership. *)
val initial_gnp : seed:int -> n:int -> p:float -> Strategy.t

(** Barabási–Albert initial configuration (scale-free; always connected),
    random ownership. Not used by the paper — an extra robustness class. *)
val initial_ba : seed:int -> n:int -> m:int -> Strategy.t

(** Watts–Strogatz initial configuration, resampled until connected. *)
val initial_ws : seed:int -> n:int -> k:int -> beta:float -> Strategy.t

(** Statistics of an initial configuration (Tables I and II). *)
type graph_stats = {
  edges : int;
  diameter : int;
  max_degree : int;
  max_bought : int;
}

val initial_stats : Strategy.t -> graph_stats

(** Per-run statistics extracted from a finished dynamics. *)
type run_stats = {
  converged : bool;
  cycled : bool;
  rounds : int;  (** rounds that performed at least one change *)
  total_moves : int;
  quality : float;  (** social cost / social optimum at the end *)
  unfairness : float;
  diameter : int;
  max_degree : int;
  max_bought : int;
  min_view : int;
  avg_view : float;
  social_cost : float;
}

(** [run_one config strategy] runs the dynamics and summarizes. *)
val run_one : Dynamics.config -> Strategy.t -> run_stats

(** [derive_seeds ~seed ~count] is the array of child seeds used for
    trials: element [i] is the [i]-th output of a SplitMix64 stream
    keyed on [seed]. A sweep cell's trials use
    [derive_seeds ~seed:cell_seed ~count:trials]. Exposed so tools can
    re-run any single trial of a sweep in isolation. *)
val derive_seeds : seed:int -> count:int -> int array

(** {1 Instrumented parallel sweeps}

    The engine behind [bin/ncg_experiment] and the bench harness: a grid
    of [(alpha, k)] cells fanned out over OCaml domains, each cell
    carrying its own telemetry. Determinism contract: for a fixed
    [seed], [runs], [counters], the histogram {e sample counts}
    ({!Ncg_obs.Histogram.counts_only} of [histograms]) and the GC
    {e allocated words} ({!Ncg_obs.Gc_stats.allocated_words} of [gc])
    of every cell are identical whatever [domains] is — a cell's RNG
    streams come from its {!cell_seed_of_cell}, a pure function of
    [(seed, alpha, k)], and all collectors are installed domain-locally
    inside the cell. A cell's results therefore do not depend on the
    rest of the grid either. Only
    [wall_ns], [started_ns], [domain], span durations, histogram bucket
    placement and GC collection counts vary between runs.

    While a sweep runs, each finished cell refreshes a live progress
    line on stderr (TTY only; see {!Ncg_obs.Progress.set_enabled}). *)

(** One sweep cell of the paper's Section 5 grids. *)
type cell = { alpha : float; k : int }

type cell_result = {
  cell : cell;
  runs : run_stats list;  (** identical to a sequential run of the cell *)
  counters : Ncg_obs.Metrics.snapshot;
      (** per-cell counts: BFS calls, solver nodes, best responses, … *)
  histograms : Ncg_obs.Histogram.snapshot;
      (** per-cell latency histograms (best response, set cover, …) *)
  probes : Ncg_obs.Probe.snapshot;
      (** round-level series (social cost, awake set, …) of the cell's
          exemplar trajectory (trial 0); all-empty when the sweep ran
          with [probes:false] *)
  gc : Ncg_obs.Gc_stats.snapshot;  (** GC delta across the cell *)
  spans : Ncg_obs.Span.t;  (** per-cell span tree (one child per trial) *)
  wall_ns : int64;  (** cell wall time on its domain *)
  started_ns : int64;
      (** monotonic start of the cell, for timeline export *)
  domain : int;  (** id of the domain that ran the cell *)
}

(** [grid ~alphas ~ks] is the row-major cell list of the cross product. *)
val grid : alphas:float list -> ks:int list -> cell list

(** [run_cell ~make_initial ~make_config ~trials ~cell_seed cell] runs a
    single instrumented cell exactly as {!sweep_supervised} would when [cell_seed]
    is [cell_seed_of_cell ~seed cell]: trial [j] starts from the [j]-th
    entry of [derive_seeds ~seed:cell_seed ~count:trials].

    [probes] (default true) installs an {!Ncg_obs.Probe} collector
    around trial 0, recording the round-level convergence series of the
    cell's exemplar trajectory into the [probes] field. The switch never
    touches the RNG streams or [runs] — CSVs are byte-identical either
    way — but it does shift [counters] (probing evaluates the social
    cost each round) and the GC delta, so it participates in
    {!cell_cache_key}. *)
val run_cell :
  ?probes:bool ->
  make_initial:(seed:int -> Strategy.t) ->
  make_config:(cell -> Dynamics.config) ->
  trials:int ->
  cell_seed:int ->
  cell ->
  cell_result

(** A quarantined sweep cell: its one attempt failed and the sweep
    completed without it. *)
type cell_failure = {
  index : int;  (** position in the sweep's cell list *)
  cell : cell;
  cell_seed : int;
      (** the seed the cell ran with ({!cell_seed_of_cell} unless the
          caller passed [cell_seeds]) *)
  kind : Ncg_fault.Executor.kind;
  exn_text : string;
  exn : exn;  (** the cell's exception, for re-raising *)
}

(** Failure-report entry (index, α, k, seed, kind, error) —
    the elements of the telemetry ["sweep.failures"] list. *)
val cell_failure_to_json : cell_failure -> Ncg_obs.Json.t

(** [sweep_supervised ?domains ?cell_deadline_ns ?store ?store_context
    ~make_initial ~make_config ~cells ~trials ~seed ()] runs every cell
    ([trials] dynamics each) under the supervised work-queue executor
    ({!Ncg_fault.Executor.map}), returning one outcome per cell in cell
    order: [Ok result], or [Error failure] for a cell whose one attempt
    raised and was quarantined — the sweep always completes every other
    cell. A computed cell is a pure function of its inputs, so a retry
    would fail the same way; there is none.

    A cell runs under [cell_deadline_ns] (watchdog domain + cooperative
    {!Ncg_fault.Cancel.checkpoint} polls in the dynamics loop), and each
    player move under [make_config]'s [move_budget] (a checkpoint count,
    so the cells it fails are the same on any [domains] and in any grid
    that contains them).

    With [?store], each cell is looked up by its {!cell_cache_key}
    before the fan-out; hits are returned without recomputation and
    misses are appended to the store as soon as they finish, on the
    domain that ran them — killing the process mid-sweep loses at most the in-flight
    cells, and a quarantined cell simply stays missing, so a later
    [--resume] run (with the cause gone) computes exactly the
    quarantined cells. [store_context] must fingerprint everything
    outside [(seed, cells, trials)] that determines a cell's output:
    graph class and parameters, solver budget, dynamics settings. Store
    traffic happens outside the per-cell collectors, so a cell's
    [counters]/[histograms]/[gc] are identical whether it was computed
    or restored.

    Determinism under failure: successful cells are identical (the
    section's determinism contract) to a sequential run without
    failures, for any [domains]; and under deterministic triggers (a
    move budget, not a wall-clock deadline) each cell's outcome is
    identical too, whatever grid it is swept in.

    By default cell [c] runs with seed [cell_seed_of_cell ~seed c].
    [cell_seeds] overrides the per-cell seed array (one entry per cell,
    raising [Invalid_argument] on a length mismatch). *)
val sweep_supervised :
  ?domains:int ->
  ?cell_deadline_ns:int64 ->
  ?store:Ncg_store.Store.t ->
  ?store_context:(string * Ncg_obs.Json.t) list ->
  ?probes:bool ->
  ?cell_seeds:int array ->
  make_initial:(seed:int -> Strategy.t) ->
  make_config:(cell -> Dynamics.config) ->
  cells:cell list ->
  trials:int ->
  seed:int ->
  unit ->
  (cell_result, cell_failure) result list

(** The quarantined cells of a {!sweep_supervised} outcome, in cell
    order. *)
val sweep_failures :
  (cell_result, cell_failure) result list -> cell_failure list

(** {1 Cell persistence}

    The codec and key schema behind [?store]. Exposed so tools
    ([ncg_experiment --store], the bench harness, tests) can inspect or
    pre-seed a store. *)

(** Lossless cell codec: [cell_result_of_json (cell_result_to_json r)]
    restores [r] exactly (including wall times, span tree and domain id —
    a cached cell reports the telemetry of the run that produced it).
    The payload embeds a schema tag; decoding a record written under a
    different tag fails. *)
val cell_result_to_json : cell_result -> Ncg_obs.Json.t

val cell_result_of_json : Ncg_obs.Json.t -> (cell_result, string) result

(** [cell_cache_key ~context ~seed ~trials ~cell_seed cell] is the
    content-addressed key {!sweep_supervised} uses: [context] (caller-supplied
    fingerprint of the graph class and dynamics config) plus the sweep
    seed, the cell's [(alpha, k)], the trial count, the cell's derived
    seed, the probes switch (default true — probing shifts the counter
    and GC sections) and the store + payload schema versions. *)
val cell_cache_key :
  ?probes:bool ->
  context:(string * Ncg_obs.Json.t) list ->
  seed:int ->
  trials:int ->
  cell_seed:int ->
  cell ->
  Ncg_store.Cache_key.t

(** [store_lookup store key] decodes a cached cell; any failure
    (missing, corrupt JSON, schema drift) reads as a miss. *)
val store_lookup : Ncg_store.Store.t -> Ncg_store.Cache_key.t -> cell_result option

(** [store_insert store key result] persists a cell (fsync'd append when
    the store is sync). *)
val store_insert : Ncg_store.Store.t -> Ncg_store.Cache_key.t -> cell_result -> unit

(** Pointwise sum of all per-cell counters. *)
val sweep_counters : cell_result list -> Ncg_obs.Metrics.snapshot

(** Bucket-wise merge of all per-cell histograms. *)
val sweep_histograms : cell_result list -> Ncg_obs.Histogram.snapshot

(** Pointwise sum of all per-cell GC deltas. *)
val sweep_gc : cell_result list -> Ncg_obs.Gc_stats.snapshot

(** Sum of per-cell wall times (CPU-ish aggregate; wall time of the whole
    sweep is shorter when [domains > 1]). *)
val sweep_wall_ns : cell_result list -> int64

(** [summarize f runs] is the mean ± CI of [f] over the runs. *)
val summarize : (run_stats -> float) -> run_stats list -> Ncg_stats.Summary.t

(** Fraction of runs satisfying a predicate. *)
val fraction : (run_stats -> bool) -> run_stats list -> float

(** [cell_seed_of_cell ~seed cell] is the cell's seed: a pure function
    of [(seed, cell.alpha, cell.k)], independent of the grid around the
    cell. Two sweeps over {e overlapping} grids agree on every shared
    cell's seed, which is what lets [ncg_experiment], [--only-cell] and
    stored sweeps over overlapping grids all produce byte-identical rows
    for a cell. *)
val cell_seed_of_cell : seed:int -> cell -> int

(** The CSV header row of [ncg_experiment]'s output. *)
val csv_header : string

(** [csv_row_prefix ~graph_class ~n ~p ~trials cell] is the cell's
    identity columns (class, n, p, alpha, k, trials), comma-terminated:
    the exact start of its {!csv_row}. Quarantined cells, which have no
    row, are reported by this prefix. *)
val csv_row_prefix :
  graph_class:string -> n:int -> p:float -> trials:int -> cell -> string

(** [csv_row ~graph_class ~n ~p ~trials r] renders one result row
    (no trailing newline) in the exact format of {!csv_header}. Every
    sweep path renders through this function, so byte-identity of their
    CSVs is structural, not coincidental. *)
val csv_row :
  graph_class:string -> n:int -> p:float -> trials:int -> cell_result -> string

(** [cell_json ~graph_class ~n ~p ~trials r] is a cell's telemetry
    record: the row's identity (class, n, p, alpha, k, trials), wall
    seconds and domain, the converged fraction and the rounds and
    quality means ([ncg_report --telemetry] reads these three), then the
    cell's counters, histograms, GC delta, probe series and span tree.
    [ncg_experiment --telemetry] writes every cell through this
    function. *)
val cell_json :
  graph_class:string -> n:int -> p:float -> trials:int -> cell_result -> Ncg_obs.Json.t
