(** Exact and greedy minimum set cover.

    This module is the project's replacement for the Gurobi ILP solver the
    paper used to compute best responses (Section 5.3). An instance is a
    universe [0, universe) and a family of candidate sets (bitsets over the
    universe); a solution is a minimum-cardinality family of candidates
    whose union covers the universe, possibly on top of a set of elements
    that are [pre_covered] for free.

    The exact solver first triages the root from the coverages
    [r_i = |sets.(i) ∩ U|] of the uncovered set [U], one pass over [sets]
    with no per-candidate allocation. It answers without a search when

    - some set covers [U]: the lowest-index such set;
    - [max_size] is below 1, or the fewest sets whose largest [r_i] add
      up to [|U|] exceed [max_size] (a valid lower bound): [None].

    Every other instance goes to a branch-and-bound search with

    - candidate dominance elimination at the root,
    - a greedy warm start for the incumbent, stopped after [max_size]
      picks, and
    - a lower bound from a greedily-built family of pairwise "independent"
      elements (no candidate covers two of them).

    A node branches on the uncovered element with the fewest candidates
    (lowest index first) and tries the candidates covering it, largest
    residual coverage first (lowest index first). The node is cheap and
    allocates nothing: an element's candidate count is fixed for the
    solve, so the elements are sorted by it once, at the first node
    that branches, and the branch is the first one still uncovered; the
    bound drops one co-cover mask (the union of the candidates covering
    an element, built the first time the bound picks it) per element it
    takes, and stops once it prunes; the options, uncovered sets and
    current path live in per-depth workspace buffers.

    The triage returns exactly what the search would, so it changes no
    answer, only the work: most best-response solves (one of the sets is
    the whole uncovered ball, or the cap is too tight) never build the
    candidate cuts, the dominance filter or the cover index.

    Views in the paper's experiments have ≤ ~200 vertices and their power
    graphs are dense, so instances are small; the B&B solves them in
    microseconds to milliseconds. *)

type instance = {
  universe : int;  (** elements are [0, universe) *)
  sets : Ncg_util.Bitset.t array;  (** candidate covering sets *)
  pre_covered : Ncg_util.Bitset.t option;
      (** elements that do not need covering (capacity = universe) *)
}

(** Result of a solve: indices into [sets]. *)
type solution = { chosen : int list; cardinality : int }

(** The reusable buffers of a solve: candidate cuts, co-cover masks and
    the search's per-depth bitsets and arrays. Threading one workspace
    through repeated solves (every radius of a best-response call, every
    call of a dynamics run) removes the per-solve allocations; without
    one, each solve creates its own. A workspace adapts to the
    instance's universe size automatically but must not be shared between
    domains. Solutions never alias workspace memory. *)
type workspace

val create_workspace : unit -> workspace

(** [solve ?ws ?max_size ?node_budget inst] is the optimal solution, or [None]
    when the instance is infeasible (some element is in no candidate set)
    or every cover needs more than [max_size] sets. [max_size] defaults to
    unbounded; passing the best-known bound prunes the search. An
    optimum of one set is always the lowest-index set covering every
    element that is not [pre_covered].

    [node_budget] caps the number of branch-and-bound nodes explored
    (default: unbounded). When the budget is exhausted the incumbent —
    never worse than the greedy warm start — is returned, so the solver
    degrades gracefully into an anytime heuristic on pathological dense
    instances while remaining exact everywhere the search completes.
    Solves decided by the root triage (see above) never reach the budget,
    and their answer is the one the search would have returned.

    Counters: every call counts [set_cover.solves]; a call decided at the
    root counts [set_cover.root_decided], and a search stopped by
    [node_budget] counts [set_cover.budget_exhausted]. *)
val solve :
  ?ws:workspace -> ?max_size:int -> ?node_budget:int -> instance -> solution option

(** [greedy inst] is the classical ln(n)-approximation: repeatedly take the
    candidate covering the most uncovered elements. [None] iff infeasible. *)
val greedy : ?ws:workspace -> instance -> solution option

(** [solve_dp inst] — exact dynamic programming over covered-element
    bitmasks: O(2^u · sets) time and O(2^u) space, exact for any
    instance with [universe <= 22] (the guard). Exists as an independent
    oracle to cross-validate the branch-and-bound solver.
    @raise Invalid_argument when the universe exceeds 22 elements. *)
val solve_dp : instance -> solution option

(** [is_cover inst chosen] checks feasibility of a candidate solution. *)
val is_cover : instance -> int list -> bool
