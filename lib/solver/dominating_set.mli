(** Minimum dominating set with forced and forbidden vertices, on top of
    {!Set_cover}.

    This is exactly the optimization problem the paper reduces MaxNCG best
    response to (Section 5.3): dominate the (h−1)-th power of the view
    minus the player, where the vertices that already bought an edge
    towards the player dominate for free ("constrained to be included"
    in the paper's phrasing — equivalently their domination is free since
    the player keeps those edges either way). The covering sets are the
    closed balls of radius h − 1 in the view with the player masked out
    (see {!context}); neither the power graph nor the view minus the
    player is ever built. *)

type problem = {
  graph : Ncg_graph.Graph.t;
  radius : int;
      (** a vertex dominates all vertices within this distance; 1 = the
          classical dominating set *)
  free_dominators : int list;
      (** vertices whose closed balls are covered at no cost *)
  forbidden : int list;  (** vertices that may not be chosen as dominators *)
}

(** {1 Amortised radius loop}

    The best-response oracle solves the same graph at radii 0, 1, 2, ... A
    {!context} starts from the balls [{v}] and grows them one radius at a
    time by the recurrence [ball_{r+1}(v) = ball_r(v) ∪ ⋃_{u ∈ N(v)}
    ball_r(u)], one pass over the graph's CSR arrays, with no BFS and no
    distance matrix. Once a step changes no ball, later radii cost
    nothing. *)

type context

(** The buffers of one graph order (balls, their double buffer, covering
    sets, pre-covered set, the context's members), reallocated only when
    the order changes. A context borrows them until the next {!context}
    call on the same workspace: at most one such context is live. Not
    domain-safe. *)
type workspace

val create_workspace : unit -> workspace

(** [context ~graph ~free_dominators ~forbidden ()] prepares the radius
    loop at radius 0, on [?ws]'s buffers or fresh ones. [?scratch] is
    ignored (no BFS runs); it goes with the traced replica that passes it.

    [?within] (a set over the graph's vertices, default all of them)
    restricts the problem to the subgraph it induces, in the graph's own
    ids: the recurrence steps only its members, a vertex outside it keeps
    an empty ball (so it adds nothing as a neighbour) and an empty
    covering set, and it is pre-covered. A best response passes the
    player's ball β_k(u) here, so it runs on the host graph with no
    induced copy. The candidates keep increasing vertex order, so
    {!Set_cover} sees the members in the order an induced copy would
    number them.

    [?exclude] masks one more vertex out the same way: the balls are
    those of the (induced) graph minus that vertex.

    The workspace's buffers are sized by the graph's order, so contexts
    on one host graph reuse them whatever [?within] holds.
    @raise Invalid_argument when [exclude] is not below the graph's order,
    or [within]'s capacity is not the graph's order. *)
val context :
  ?scratch:Ncg_graph.Bfs.scratch ->
  ?ws:workspace ->
  ?within:Ncg_util.Bitset.t ->
  ?exclude:int ->
  graph:Ncg_graph.Graph.t ->
  free_dominators:int list ->
  forbidden:int list ->
  unit ->
  context

(** [solve_at ?ws ctx ~radius] is {!solve} of the corresponding problem.
    Radii must not decrease from call to call, since the balls only grow.
    [?ws] threads a {!Set_cover.workspace} through the branch and bound.
    @raise Invalid_argument when [radius] is below one this context has
    already reached (a negative radius included). *)
val solve_at :
  ?ws:Set_cover.workspace ->
  ?max_size:int ->
  ?node_budget:int ->
  context ->
  radius:int ->
  int list option

(** Greedy variant of {!solve_at}, with the same radius order. *)
val greedy_at : ?ws:Set_cover.workspace -> context -> radius:int -> int list option

(** {1 One-shot problems}

    Each builds a fresh {!context} for [p] and reads the instance at
    [p.radius], so a one-shot problem is solved on exactly the instance
    the radius loop sees. @raise Invalid_argument on a negative radius. *)

(** [solve ?max_size ?node_budget p] is a minimum list of chosen
    dominators (excluding the free ones), or [None] if infeasible / above
    [max_size]. [node_budget] bounds the branch-and-bound search as in
    {!Set_cover.solve}. *)
val solve : ?max_size:int -> ?node_budget:int -> problem -> int list option

(** Greedy variant with the same interface. *)
val greedy : problem -> int list option

(** [dominates p chosen] checks that the free dominators plus [chosen]
    cover every vertex of the graph. *)
val dominates : problem -> int list -> bool
