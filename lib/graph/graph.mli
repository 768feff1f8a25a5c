(** Immutable, simple, undirected graphs on vertices [0 .. n-1].

    The representation is flat CSR: one [int array] of per-vertex offsets
    (length [n + 1]) and one packed neighbour array (length [2m]) whose
    per-vertex segments are sorted ascending. This canonical form is built
    once from an edge list — the cache-friendly shape the BFS-heavy
    algorithms in this project want — and makes structural equality a plain
    array comparison. Self loops are rejected and parallel edges collapse.

    A [t] never changes, with one exception: the graph {!borrow}ed from an
    {!adjacency}, the host graph a dynamics trajectory owns and re-centres
    in place after each move (see {!Ncg.Strategy.recentre}). In the
    network creation game the source of truth is the strategy profile;
    every other graph is derived from it, or re-centred into a fresh
    graph with {!with_star}. *)

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

(** The packed neighbour array, segments sorted ascending. Its first
    [2 * size g] entries are used; a graph borrowed from an {!adjacency}
    has spare room after them. The graph's own storage — treat it as
    read-only. *)
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
    retained. Only the rows of [u] and of the vertices that gain or lose
    [u] are rewritten; the spans between them are blitted. This is the
    primitive behind {!Ncg.View.with_strategy}.
    @raise Invalid_argument on an unsorted star or an endpoint violation. *)
val with_star : t -> int -> int array -> t

(** {1 In-place re-centring} *)

(** A host graph one owner re-centres in place, one vertex's star at a
    time: two CSR buffer pairs with spare arc room, written alternately.
    Not domain-safe. *)
type adjacency

(** [adjacency g] copies [g] into fresh buffers. *)
val adjacency : t -> adjacency

(** The adjacency's current graph. It shares the adjacency's buffers: it
    is valid only until the next {!set_star}, and must not be kept past
    it (lint rule S1 flags a borrow that escapes). *)
val borrow : adjacency -> t

(** [set_star a u star] is {!with_star} in place: the current graph
    becomes [with_star (borrow a) u star]. It rewrites only the rows of
    [u] and of the vertices that gain or lose [u], blits the rest, and
    allocates nothing beyond the new graph record unless the arc count
    outgrows the buffers.
    @raise Invalid_argument as {!with_star}. *)
val set_star : adjacency -> int -> int array -> unit

(** Structural equality (same order, same edge set). *)
val equal : t -> t -> bool

(** Pretty-printer: ["graph(n=5, m=4)"]. *)
val pp : Format.formatter -> t -> unit
