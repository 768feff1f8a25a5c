module Graph = Ncg_graph.Graph
module Bfs = Ncg_graph.Bfs
module Subgraph = Ncg_graph.Subgraph

type t = {
  player : int;
  k : int;
  graph : Graph.t;
  mapping : Subgraph.mapping;
  owned : int list;
  in_buyers : int list;
  dist : int array;
}

let extract ?scratch strategy g ~k u =
  if k < 1 then invalid_arg "View.extract: need k >= 1";
  Ncg_obs.Metrics.(incr view_extracts);
  let scratch =
    match scratch with
    | Some s -> s
    | None -> Bfs.create_scratch ~capacity:(Graph.order g) ()
  in
  let graph, mapping = Subgraph.ball_induced ~scratch g u ~radius:k in
  let player = mapping.Subgraph.to_sub.(u) in
  let map_host v = mapping.Subgraph.to_sub.(v) in
  (* Neighbours of u are at distance 1, hence always inside the ball. *)
  let owned = List.map map_host (Strategy.owned strategy u) in
  let in_buyers = List.map map_host (Strategy.in_buyers strategy g u) in
  (* The ball search's distances: a shortest path to a vertex of the ball
     stays inside it, so they are the distances within H too. *)
  let host_dist = Bfs.dist_array scratch in
  let dist = Array.map (fun h -> host_dist.(h)) mapping.Subgraph.to_host in
  { player; k; graph; mapping; owned; in_buyers; dist }

let size v = Graph.order v.graph

let frontier v =
  let acc = ref [] in
  for x = Array.length v.dist - 1 downto 0 do
    if v.dist.(x) = v.k then acc := x :: !acc
  done;
  !acc

let with_strategy v targets =
  let n = Graph.order v.graph in
  List.iter
    (fun t ->
      if t < 0 || t >= n then invalid_arg "View.with_strategy: target out of range";
      if t = v.player then invalid_arg "View.with_strategy: self target")
    targets;
  let u = v.player in
  (* The player's new incident set: her targets plus the edges bought
     towards her (which she cannot drop); a single [with_star] pass
     rebuilds H′ without materialising an edge list. *)
  let star =
    Array.of_list (List.sort_uniq compare (List.rev_append targets v.in_buyers))
  in
  Graph.with_star v.graph u star

let single_edge_moves v targets =
  let others = List.filter (fun x -> x <> v.player) (List.init (size v) Fun.id) in
  let adds =
    List.filter_map
      (fun t -> if List.mem t targets then None else Some (t :: targets))
      others
  in
  let drops = List.map (fun t -> List.filter (( <> ) t) targets) targets in
  let swaps =
    List.concat_map
      (fun out ->
        let without = List.filter (( <> ) out) targets in
        List.filter_map
          (fun inn -> if List.mem inn targets then None else Some (inn :: without))
          others)
      targets
  in
  List.concat [ adds; drops; swaps ]

let to_host v ids =
  List.map (fun i -> v.mapping.Subgraph.to_host.(i)) ids

let of_host v ids =
  List.map
    (fun h ->
      let i = v.mapping.Subgraph.to_sub.(h) in
      if i < 0 then invalid_arg "View.of_host: vertex not visible";
      i)
    ids
