(** Sweeps as data: one record naming everything that determines a
    sweep's results.

    [ncg_experiment] builds this record from its CLI flags; the bench,
    the examples, perfbench and the tests build it directly. This module
    is the single compiler from that record to the {!Experiment} calls
    ({!sweep} is the only caller of {!Experiment.sweep_supervised}
    outside perfbench and the tests), so every caller constructs
    {e the same} initial graphs, dynamics configs, store contexts and
    cache keys, and every figure cell is a row [ncg_experiment] can
    reproduce.

    Cell seeds come from {!Experiment.cell_seed_of_cell}, a pure
    function of [(seed, alpha, k)], so two specs whose grids overlap
    agree on every shared cell. Two [--store] sweeps over overlapping
    grids therefore share the store's records for the common cells, and
    their rows together equal a one-shot sweep over the union grid. *)

type t = {
  graph_class : string;  (** ["tree"], ["gnp"], ["ba"] or ["ws"] *)
  n : int;
  p : float;  (** edge probability, used by ["gnp"] only *)
  alphas : float list;
  ks : int list;
  trials : int;
  seed : int;
  budget : int;  (** branch-and-bound node budget per best response *)
  move_budget : int;
  probes : bool;  (** round-level probe collection (part of cache keys) *)
}

(** [ncg_experiment]'s defaults: tree, n = 50, p = 0.1, the paper grid,
    5 trials, seed 2014. *)
val default : t

val graph_classes : string list

(** Structural sanity: known class, n ≥ 2, p in \[0, 1\] (and p > 0 for
    ["gnp"]: no G(n ≥ 2, 0) is connected), non-empty finite grids,
    positive trials/ks. *)
val validate : t -> (unit, string) result

(** The initial-graph constructor for the spec's class (same shapes as
    [ncg_experiment]: BA with m = 2, WS with k = 4, beta = 0.2).
    Raises [Failure] on an unknown class — call {!validate} first on
    untrusted input. *)
val make_initial : t -> seed:int -> Strategy.t

val make_config : t -> Experiment.cell -> Dynamics.config

(** The store-context fingerprint (class, n, p, dynamics settings),
    read off {!make_config} — field-for-field what [ncg_experiment]
    writes into its cache keys. *)
val context : t -> (string * Ncg_obs.Json.t) list

(** The [(alpha, k)] grid, in {!Experiment.grid} order. *)
val cells : t -> Experiment.cell list

(** The cell's seed ({!Experiment.cell_seed_of_cell}): what
    {!Experiment.sweep_supervised} runs the cell with by default. *)
val cell_seed : t -> Experiment.cell -> int

(** [trial_seed spec cell ~trial] is the seed trial [trial] of the cell
    starts from: entry [trial] of
    [Experiment.derive_seeds ~seed:(cell_seed spec cell)], the same for
    any [trials ≥ trial + 1]. [make_initial spec ~seed:(trial_seed …)]
    under [make_config spec cell] is that trial's trajectory.
    @raise Invalid_argument if [trial < 0]. *)
val trial_seed : t -> Experiment.cell -> trial:int -> int

(** Full content-addressed key for one cell of this spec. *)
val cache_key : t -> Experiment.cell -> Ncg_store.Cache_key.t

(** [sweep ?domains ?cell_deadline_ns ?store spec] runs every cell of
    the spec through {!Experiment.sweep_supervised}, with the spec's
    store context, probes switch, constructors, trials and seed: one
    outcome per cell, in {!cells} order. *)
val sweep :
  ?domains:int ->
  ?cell_deadline_ns:int64 ->
  ?store:Ncg_store.Store.t ->
  t ->
  (Experiment.cell_result, Experiment.cell_failure) result list

(** Compute one cell ({!Experiment.run_cell} with this spec's
    constructors and seed derivation). *)
val run_cell : t -> Experiment.cell -> Experiment.cell_result

(** Render one result row ({!Experiment.csv_row} with this spec's
    class/n/p/trials). *)
val csv_row : t -> Experiment.cell_result -> string
