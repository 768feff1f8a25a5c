(** Minimum dominating set with forced and forbidden vertices, on top of
    {!Set_cover}.

    This is exactly the optimization problem the paper reduces MaxNCG best
    response to (Section 5.3): dominate the (h−1)-th power of the view
    minus the player, where the vertices that already bought an edge
    towards the player dominate for free ("constrained to be included"
    in the paper's phrasing — equivalently their domination is free since
    the player keeps those edges either way). *)

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

    The best-response oracle solves the same graph at radii 0, 1, 2, ... —
    a {!context} computes the all-pairs distance rows once and grows each
    covering ball incrementally as the radius advances, instead of
    re-running n BFS per radius. *)

type context

(** A growable distance-matrix buffer reused across contexts. At most one
    context built from a given workspace may be live at a time — creating
    the next one overwrites the matrix. Not domain-safe. *)
type workspace

val create_workspace : unit -> workspace

(** [context ~graph ~free_dominators ~forbidden ()] prepares the radius
    loop: n BFS runs (borrowing [?scratch] when given — the context does
    not alias it afterwards) plus one n-bit set per vertex at radius 0.
    [?ws] lends the distance-matrix buffer; the context borrows it until
    the next [context] call on the same workspace. *)
val context :
  ?scratch:Ncg_graph.Bfs.scratch ->
  ?ws:workspace ->
  graph:Ncg_graph.Graph.t ->
  free_dominators:int list ->
  forbidden:int list ->
  unit ->
  context

(** [solve_at ?ws ctx ~radius] is {!solve} of the corresponding problem,
    reusing the context's distance rows and ball sets. Radii may be visited
    in any order; advancing is monotone internally. [?ws] threads a
    {!Set_cover.workspace} through the underlying branch and bound. *)
val solve_at :
  ?ws:Set_cover.workspace ->
  ?max_size:int ->
  ?node_budget:int ->
  context ->
  radius:int ->
  int list option

(** Greedy variant of {!solve_at}. *)
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
