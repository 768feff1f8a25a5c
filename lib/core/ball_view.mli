(** A player's k-view read in place, as the ball β_k(u) of a graph that
    contains it.

    By Proposition 2.1 the k-view of [u] is exactly the ball β_k(u) of the
    host graph, so a best response needs no renamed copy of it: {!borrow}
    keeps host ids throughout and lends the host graph and the ball
    search's distances instead of copying them. {!View.t} is the
    compact, renamed form of the same information; {!of_view} reads one
    as a ball of its own graph. *)

type t = {
  player : int;  (** the player, in [graph]'s ids *)
  k : int;
  graph : Ncg_graph.Graph.t;  (** a graph whose ball β_k(player) is the view *)
  ball : Ncg_util.Bitset.t;
      (** β_k(player), over [graph]'s vertices; it iterates in increasing
          id order, the order {!View.extract} numbers the view in *)
  size : int;  (** number of vertices in [ball], the player included *)
  usage : int;  (** eccentricity of the player within the ball *)
  dist : int array;
      (** distances from the player, indexed by [graph]'s ids; meaningful
          on [ball] only *)
  owned : int list;  (** the player's targets *)
  in_buyers : int list;  (** players that bought an edge towards her *)
}

(** [borrow ~scratch strategy g ~k u] is [u]'s k-view on [g], which must
    be [Strategy.graph strategy]: one radius-[k] {!Ncg_graph.Bfs.run} on
    [scratch]. It counts one [view.extracts], like {!View.extract}.

    The view borrows [g] and [scratch]'s distance buffer: it is valid
    only until the next search on [scratch] or the next change of [g]
    (an {!Ncg_graph.Graph.adjacency}'s graph changes in place), and must
    not be kept past them (lint rule S1 flags a borrow that escapes).
    @raise Invalid_argument if [k < 1]. *)
val borrow :
  scratch:Ncg_graph.Bfs.scratch -> Strategy.t -> Ncg_graph.Graph.t -> k:int -> int -> t

(** [of_view v] reads [v] as the ball of its own graph, which is all of
    it; view ids throughout. It shares [v]'s arrays. *)
val of_view : View.t -> t
