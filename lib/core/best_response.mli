(** Exact best response for MaxNCG under local knowledge.

    By Proposition 2.1 the worst realizable network for any deviation is
    the view itself, so the best response minimizes
    α·|σ′| + ecc_{H′}(player) over the view H. Following Section 5.3 of
    the paper, for each target eccentricity h the cheapest strategy is a
    minimum dominating set of the (h−1)-th power of H∖{player} in which
    the players that bought an edge towards the player dominate for free;
    we minimize α·|S| + h over h, pruning with h ≥ best-cost-so-far and
    passing the incumbent to the solver as a cardinality cap.

    The [`Exact] solver gives true best responses (what the paper computed
    with Gurobi); [`Budgeted b] caps the branch-and-bound at [b] nodes per
    dominating-set call — exact whenever the search completes, otherwise
    the incumbent (at least greedy quality) is used; [`Greedy] trades
    optimality for speed on very large views. *)

type outcome = {
  targets : int list;
      (** the new σ′, in the view's ids: view coordinates for a {!View.t},
          the graph's own ids for a {!Ball_view.t} *)
  usage : int;  (** eccentricity of the player in H′ *)
  cost : float;  (** α·|targets| + usage *)
}

(** Cost of the player's current strategy evaluated on her view:
    α·|σ_u| + ecc_H(u). Always finite (the view is a ball, hence
    connected). *)
val current_cost : alpha:float -> View.t -> float

(** Eccentricity of the player within her view. *)
val current_usage : View.t -> int

(** [compute ?ws ?solver ?max_edges ?allowed ~alpha view] is an optimal
    outcome; its cost is at most [current_cost]. If no strict improvement
    exists, the current strategy is returned unchanged.

    [ws] lends reusable scratch buffers (ball buffers + set-cover pool) to the
    radius loop; results never alias them. Pass one {!Workspace.t} per
    logical run, as {!Dynamics.run} does.
    [max_edges] caps the number of bought edges — the bounded-budget
    variant of Ehsani et al. / Bilò et al. (both cited in Section 1).
    [allowed] restricts purchasable targets (view coordinates) — the
    host-graph variant of Bilò et al. 2012b / Demaine et al. 2009.
    @raise Invalid_argument when the player's *current* strategy already
    violates a restriction (the caller owns that invariant). *)
val compute :
  ?ws:Workspace.t ->
  ?solver:[ `Exact | `Budgeted of int | `Greedy ] ->
  ?max_edges:int ->
  ?allowed:int list ->
  alpha:float ->
  View.t ->
  outcome

(** {1 On a ball view}

    The same best response, read on a {!Ball_view.t}: {!compute} is
    [compute_ball] of {!Ball_view.of_view}. On a view borrowed from the
    host graph the solver works in host ids over the ball (see
    {!Ncg_solver.Dominating_set.context}'s [?within]), so the chosen
    targets are host ids, and no view copy is built. The candidates keep
    the view's order, so both forms choose the same targets. *)

(** α·|σ_u| + the player's eccentricity within the ball. *)
val ball_cost : alpha:float -> Ball_view.t -> float

(** {!compute} on a ball view; [allowed] is in the view's ids. *)
val compute_ball :
  ?ws:Workspace.t ->
  ?solver:[ `Exact | `Budgeted of int | `Greedy ] ->
  ?max_edges:int ->
  ?allowed:int list ->
  alpha:float ->
  Ball_view.t ->
  outcome

(** {!improving} on a ball view. *)
val improving_ball :
  ?ws:Workspace.t ->
  ?solver:[ `Exact | `Budgeted of int | `Greedy ] ->
  ?epsilon:float ->
  alpha:float ->
  Ball_view.t ->
  outcome option

(** [local_search ~alpha view] is a *better-response* engine: steepest
    descent over single-edge additions, deletions and swaps starting from
    the current strategy. Cheap (no dominating-set solves) and a model of
    boundedly rational play, but only a local optimum — the dynamics it
    induces can stop at profiles that are not LKEs. *)
val local_search : alpha:float -> View.t -> outcome

(** [improving ?ws ?solver ?epsilon ~alpha view] is [Some outcome] iff the
    best response is strictly better than the current strategy by more
    than [epsilon] (default 1e-9). *)
val improving :
  ?ws:Workspace.t ->
  ?solver:[ `Exact | `Budgeted of int | `Greedy ] ->
  ?epsilon:float ->
  alpha:float ->
  View.t ->
  outcome option
