(** Immutable, simple, undirected graphs on vertices [0 .. n-1].

    The representation is flat CSR: one [int array] of per-vertex offsets
    (length [n + 1]) and one packed neighbour array (length [2m]) whose
    per-vertex segments are sorted ascending. This canonical form is built
    once from an edge list — the cache-friendly shape the BFS-heavy
    algorithms in this project want — and makes structural equality a plain
    array comparison. Self loops are rejected and parallel edges collapse.

    Mutation is not supported on purpose: in the network creation game the
    source of truth is the strategy profile, and after a move the graph is
    re-derived from it or re-centred with {!with_star} (see
    {!Ncg.Strategy}). *)

type t

(** {1 Construction} *)

(** [of_edges ~n edges] builds a graph on [n] vertices. Duplicate edges
    (in either orientation) are collapsed.
    @raise Invalid_argument on a self loop or an endpoint outside [0, n). *)
val of_edges : n:int -> (int * int) list -> t

(** [empty n] has [n] vertices and no edges. *)
val empty : int -> t

(** [unsafe_of_csr ~n ~m ~offsets ~packed] wraps pre-built CSR arrays without
    normalising them. The caller promises: per-vertex segments sorted
    strictly ascending, symmetric (each arc present in both directions), no
    self loops, and that it transfers ownership of both arrays (they must
    never be mutated afterwards). Only cheap shape invariants are checked.
    Intended for internal fast paths ({!Ncg_graph.Subgraph}, {!with_star});
    prefer {!of_edges} everywhere else.
    @raise Invalid_argument when the array shapes are inconsistent. *)
val unsafe_of_csr : n:int -> m:int -> offsets:int array -> packed:int array -> t

(** {1 Observation} *)

(** Number of vertices. *)
val order : t -> int

(** Number of edges. *)
val size : t -> int

(** [neighbors g u] is the sorted array of neighbours of [u], freshly
    allocated on every call. Hot paths should use {!iter_neighbors} /
    {!fold_neighbors} or index {!csr_packed} directly instead. *)
val neighbors : t -> int -> int array

(** [degree g u] is the number of neighbours of [u]. *)
val degree : t -> int -> int

(** [iter_neighbors f g u] applies [f] to each neighbour of [u] in
    ascending order, without allocating. *)
val iter_neighbors : (int -> unit) -> t -> int -> unit

(** [fold_neighbors f g u init] folds over the neighbours of [u] in
    ascending order, without allocating. *)
val fold_neighbors : (int -> 'a -> 'a) -> t -> int -> 'a -> 'a

(** The CSR offset array (length [order g + 1]): the neighbours of [u] live
    at indices [offsets.(u) .. offsets.(u+1) - 1] of {!csr_packed}. The
    returned array is the graph's own storage — treat it as read-only. *)
val csr_offsets : t -> int array

(** The packed neighbour array (length [2 * size g]), segments sorted
    ascending. The graph's own storage — treat it as read-only. *)
val csr_packed : t -> int array

(** [mem_edge g u v] tests adjacency in O(log degree). *)
val mem_edge : t -> int -> int -> bool

(** Every edge [(u, v)] with [u < v], in lexicographic order. *)
val edges : t -> (int * int) list

(** [iter_edges f g] applies [f u v] to every edge with [u < v]. *)
val iter_edges : (int -> int -> unit) -> t -> unit

(** [fold_vertices f g init] folds over [0 .. n-1] in order. *)
val fold_vertices : (int -> 'a -> 'a) -> t -> 'a -> 'a

(** {1 Derivation} *)

(** [add_edges g extra] is a fresh graph with the additional edges. *)
val add_edges : t -> (int * int) list -> t

(** [remove_vertex_edges g u] removes every edge incident to [u] (the vertex
    itself remains, isolated). *)
val remove_vertex_edges : t -> int -> t

(** [with_star g u star] replaces every edge incident to [u] with edges from
    [u] to exactly the members of [star], in one O(n + m) pass. [star] must
    be sorted strictly ascending and must not contain [u]; the array is not
    retained. This is the hot primitive behind {!Ncg.View.with_strategy}.
    @raise Invalid_argument on an unsorted star or an endpoint violation. *)
val with_star : t -> int -> int array -> t

(** Structural equality (same order, same edge set). *)
val equal : t -> t -> bool

(** Pretty-printer: ["graph(n=5, m=4)"]. *)
val pp : Format.formatter -> t -> unit
