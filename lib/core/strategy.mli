(** Strategy profiles.

    A profile assigns to every player [u] the set of players she buys an
    edge towards ([σ_u] in the paper). The underlying network G(σ) is the
    undirected graph with an edge (u,v) whenever [v ∈ σ_u] or [u ∈ σ_v];
    if both bought, the edge collapses in the graph but both still pay α.

    Profiles are immutable; {!with_owned} copies. The profile — not the
    graph — is the source of truth in a game: the graph is derived from
    it with {!graph}, or carried across a one-player change in place with
    {!recentre}. *)

type t

(** [create ~n] is the empty profile on [n] players. *)
val create : n:int -> t

(** [of_buys ~n buys] builds a profile from [(buyer, target)] pairs.
    Duplicate pairs collapse. @raise Invalid_argument on self purchases or
    out-of-range players. *)
val of_buys : n:int -> (int * int) list -> t

val n_players : t -> int

(** Sorted list of [u]'s targets. *)
val owned : t -> int -> int list

(** [owns t u v] — does [u] buy the edge towards [v]? *)
val owns : t -> int -> int -> bool

(** Number of edges [u] buys. *)
val bought_count : t -> int -> int

(** Total purchases [Σ_u |σ_u|] (an edge bought from both sides counts
    twice, as in the players' building costs). *)
val total_bought : t -> int

(** [with_owned t u targets] replaces [u]'s strategy. Duplicates collapse.
    @raise Invalid_argument on self purchase or out-of-range target. *)
val with_owned : t -> int -> int list -> t

(** [in_buyers t g u] is the sorted list of players [v] with [u ∈ σ_v]
    (they bought an edge towards [u]). [g] must be {!graph}[ t], or the
    network of a profile that differs from [t] only in [u]'s strategy:
    every in-buyer of [u] is her neighbour there, so only [u]'s
    neighbourhood is searched, in O(deg(u) · max bought). *)
val in_buyers : t -> Ncg_graph.Graph.t -> int -> int list

(** The network G(σ). *)
val graph : t -> Ncg_graph.Graph.t

(** [recentre t adj u] makes [adj]'s graph equal to [graph t], given that
    it is the network of a profile that differs from [t] at most in [u]'s
    strategy. One {!Ncg_graph.Graph.set_star} re-centres [u]'s star in
    place: only the rows of [u] and of the players that gain or lose an
    edge to her are rewritten. *)
val recentre : t -> Ncg_graph.Graph.adjacency -> int -> unit

(** [random_orientation rng g] gives each edge of [g] to a uniformly random
    endpoint — the paper's protocol for initial trees and G(n,p) graphs. *)
val random_orientation : Ncg_prng.Rng.t -> Ncg_graph.Graph.t -> t

val equal : t -> t -> bool

(** Text serialization: first line [n], then one line per player with her
    space-separated targets (possibly empty). Round-trips with
    {!of_string}. *)
val to_string : t -> string

(** Parse the {!to_string} format. @raise Invalid_argument on malformed
    input (wrong line count, non-integers, self edges, out of range). *)
val of_string : string -> t

(** Canonical string key of the profile — used by the dynamics engine to
    detect best-response cycles by exact profile recurrence. *)
val to_key : t -> string

val pp : Format.formatter -> t -> unit
