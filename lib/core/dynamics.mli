(** Round-robin best-response dynamics (Section 5.1 of the paper).

    Players move in turns; a round considers every player once; a player
    moves only when her engine finds a strictly improving deviation
    (worst-case, view-evaluated). The process stops at the first round
    with no change, or — under the deterministic round-robin order — when
    the profile at the end of a round repeats an earlier end-of-round
    profile, which certifies a best-response cycle (the paper's
    divergence criterion), or after [max_rounds]. *)

type config = {
  variant : Game.variant;
  alpha : float;
  k : int;  (** use a huge k (e.g. 1000) for the full-knowledge game *)
  solver : [ `Exact | `Budgeted of int | `Greedy ];
      (** MaxNCG best-response engine (used when [response = `Best]) *)
  response : [ `Best | `Local_moves ];
      (** [`Best] = exact best response (the paper's setting);
          [`Local_moves] = steepest single-edge add/drop/swap — a
          better-response / bounded-rationality variant. Max only;
          SumNCG always follows [sum_mode]. *)
  sum_mode : [ `Exact of int | `Branch_and_bound of int | `Local_search ];
      (** SumNCG best-response engine (ignored under Max) *)
  order : [ `Round_robin | `Random_sweep of int ];
      (** player order within a round; [`Random_sweep seed] reshuffles
          every round (cycle detection is disabled — a repeated profile
          proves nothing under a random order) *)
  max_rounds : int;
  epsilon : float;  (** strict-improvement threshold *)
  collect_features : bool;  (** record {!Features.t} after every round *)
  move_budget : int;
      (** max search steps (cooperative {!Ncg_fault.Cancel.checkpoint}
          polls: dominating-set radii, local-search descents) a single
          player move may take before the run fails with
          [Ncg_fault.Cancel.Timed_out "step budget exhausted"] instead
          of hanging; [<= 0] = unlimited. Budget hits are counted in
          the ["dynamics.step_budget_hits"] metric. *)
}

(** Sensible defaults: Max variant, exact best responses, round-robin,
    200 rounds, features on, a 1e6-step move budget. *)
val default_config : alpha:float -> k:int -> config

type outcome =
  | Converged of int  (** equilibrium reached after this many rounds *)
  | Cycle_detected of int  (** end-of-round profile repeated this round *)
  | Max_rounds_exceeded

type result = {
  outcome : outcome;
  final : Strategy.t;
  rounds : int;  (** rounds fully executed *)
  total_moves : int;  (** strategy changes over the whole run *)
  features : Features.t list;  (** chronological, one per executed round *)
  trace : Trace.t;
      (** every accepted move; [Trace.replay] on the initial profile
          reproduces [final] *)
}

(** [run config strategy] executes the dynamics from the initial profile.

    The run is incremental. It keeps the host graph as state, one
    {!Ncg_graph.Graph.adjacency} it patches in place after each accepted
    move with {!Strategy.recentre}, and it solves only {e awake} players.
    A MaxNCG best response ([response = `Best]) reads the player's view
    in place on that graph ({!Ball_view.borrow}, no view copy); the other
    engines search a {!View.extract} copy. Every player starts awake;
    computing a player's best response puts her to sleep; an accepted
    move by [v] wakes every player within distance k + 1 of [v] in the
    graph before the patch or after it, [v] herself included (everyone at
    once, without a search, when k + 1 ≥ n − 1). A best response is a pure function of
    the player's k-view, and a move by [v] changes only the views within
    that radius, so a sleeping player would again find no improving
    move. Skipping her draws no randomness and leaves rounds and cycle
    keys alone: the outcome, round count, trace, features and final
    profile — hence every sweep CSV — are byte-identical to solving every
    player in every round. Only the oracle counters ([best_response.calls],
    [view.extracts], [bfs.calls], …) fall.

    When an {!Ncg_obs.Probe} collector is installed in the calling
    domain, every round samples the built-in probes (social cost, awake
    players — the best responses computed that round — best-response
    gaps, move edit distance and locality radius,
    solver effort deltas) with [x = round]. Probing reuses the trajectory's BFS
    scratch, so it allocates nothing; with no collector installed each
    probe point is a domain-local read and a branch.

    @raise Invalid_argument if the initial network is disconnected (the
    paper assumes players start on a connected network). *)
val run : config -> Strategy.t -> result

(** [best_response_step ?ws config strategy g u] — [g] must be
    [Strategy.graph strategy] — is
    [Some (profile', old_cost, new_cost)] if player [u] has an improving
    deviation — the updated profile with [u]'s view-local cost before and
    after the move (what the [dynamics.move] event reports) — [None]
    otherwise. Exposed for step-by-step inspection in examples. [?ws]
    lends reusable oracle scratch buffers; [run] threads one workspace
    through every step of a trajectory. *)
val best_response_step :
  ?ws:Workspace.t ->
  config ->
  Strategy.t ->
  Ncg_graph.Graph.t ->
  int ->
  (Strategy.t * float * float) option
