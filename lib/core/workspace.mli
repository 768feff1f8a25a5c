(** Scratch buffers for the oracle hot path.

    One workspace bundles the reusable BFS buffers ({!Ncg_graph.Bfs.scratch})
    that {!View.extract}, {!Ball_view.borrow} and {!Dynamics} use, and the
    two pools {!Best_response.compute_ball} uses: the dominating-set ball
    buffers ({!Ncg_solver.Dominating_set.workspace}, sized by the graph's
    order) and the set-cover branch-and-bound pool
    ({!Ncg_solver.Set_cover.workspace}). Create one per logical run — e.g.
    {!Dynamics.run} creates one per trajectory and threads it through every
    player step — never share one between domains, and never retain
    references into it across calls (see docs/PERFORMANCE.md). The
    trajectory's host graph is not pooled here: {!Dynamics.run} owns it
    as a {!Ncg_graph.Graph.adjacency}.

    Creating a workspace per run (rather than caching one per domain) is
    deliberate: per-cell allocation stays a pure function of the cell, which
    the parallel-sweep determinism contract and the bench gate's
    allocated-words telemetry both rely on. *)

type t = {
  bfs : Ncg_graph.Bfs.scratch;
  cover : Ncg_solver.Set_cover.workspace;
  dom : Ncg_solver.Dominating_set.workspace;
}

(** [create ~capacity ()] pre-sizes the BFS buffers for graphs of order ≤
    [capacity] (default 0: grow on first use). *)
val create : ?capacity:int -> unit -> t
