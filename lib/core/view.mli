(** A player's local knowledge: the subgraph induced by her
    k-neighbourhood, plus the part of the ownership profile she can see.

    Vertices of the view are renamed to [0 .. size-1]; {!to_host} /
    {!of_host} translate. Since every neighbour of the player is at
    distance 1 ≤ k, her own purchases and the edges bought towards her are
    always fully visible. *)

type t = {
  player : int;  (** the player, in view coordinates *)
  k : int;
  graph : Ncg_graph.Graph.t;  (** H, the induced subgraph on β_{G,k}(u) *)
  mapping : Ncg_graph.Subgraph.mapping;
  owned : int list;  (** u's targets, view coordinates *)
  in_buyers : int list;  (** players that bought an edge to u, view coords *)
  dist : int array;  (** distances from the player within H *)
}

(** [extract strategy g ~k u] — [g] must be [Strategy.graph strategy].
    One radius-[k] BFS finds the ball and its distances. [?scratch] lends
    it reusable buffers (the view does not alias them afterwards).
    @raise Invalid_argument if [k < 1]. *)
val extract :
  ?scratch:Ncg_graph.Bfs.scratch -> Strategy.t -> Ncg_graph.Graph.t -> k:int -> int -> t

(** Number of vertices the player sees (herself included) — the paper's
    "view size" metric of Figure 5. *)
val size : t -> int

(** Vertices of H at distance exactly [k] from the player — the frontier
    set F of Proposition 2.2. View coordinates. *)
val frontier : t -> int list

(** [with_strategy v targets] is H′: the view graph with the player's
    bought edges replaced by edges towards [targets] (view coordinates).
    Edges bought towards the player are kept.
    @raise Invalid_argument on a self target or out-of-range target. *)
val with_strategy : t -> int list -> Ncg_graph.Graph.t

(** [single_edge_moves v targets] is every strategy one edge away from
    [targets] (view coordinates): each single addition, then each
    deletion, then each swap of one target for one non-target, in that
    order. The neighbourhood both local searches descend over. *)
val single_edge_moves : t -> int list -> int list list

(** Translate view vertex ids to host graph ids. *)
val to_host : t -> int list -> int list

(** Translate host ids to view ids. @raise Invalid_argument if some vertex
    is not visible. *)
val of_host : t -> int list -> int list
