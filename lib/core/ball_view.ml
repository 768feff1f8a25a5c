module Graph = Ncg_graph.Graph
module Bfs = Ncg_graph.Bfs
module Bitset = Ncg_util.Bitset

type t = {
  player : int;
  k : int;
  graph : Graph.t;
  ball : Bitset.t;
  size : int;
  usage : int;
  dist : int array;
  owned : int list;
  in_buyers : int list;
}

let borrow ~scratch strategy g ~k u =
  if k < 1 then invalid_arg "Ball_view.borrow: need k >= 1";
  Ncg_obs.Metrics.(incr view_extracts);
  let size = Bfs.run scratch g u ~radius:k in
  let order = Bfs.visit_order scratch in
  let ball = Bitset.create (Graph.order g) in
  for i = 0 to size - 1 do
    Bitset.add ball order.(i)
  done;
  let dist = Bfs.dist_array scratch in
  (* BFS order is by distance: the last vertex reached is a farthest one. *)
  {
    player = u;
    k;
    graph = g;
    ball;
    size;
    usage = dist.(order.(size - 1));
    dist;
    owned = Strategy.owned strategy u;
    in_buyers = Strategy.in_buyers strategy g u;
  }

let of_view (v : View.t) =
  let size = Graph.order v.View.graph in
  let ball = Bitset.create size in
  Bitset.fill ball;
  {
    player = v.View.player;
    k = v.View.k;
    graph = v.View.graph;
    ball;
    size;
    usage = Ncg_util.Arrayx.max_elt v.View.dist;
    dist = v.View.dist;
    owned = v.View.owned;
    in_buyers = v.View.in_buyers;
  }
