(* Tests for the k-neighbourhood view machinery. *)

module Graph = Ncg_graph.Graph
module Strategy = Ncg.Strategy
module View = Ncg.View
module Rng = Ncg_prng.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_int_list = Alcotest.(check (list int))

(* Path 0-1-2-3-4, i buys the edge to i+1. *)
let path5 = Strategy.of_buys ~n:5 [ (0, 1); (1, 2); (2, 3); (3, 4) ]
let path5_g = Strategy.graph path5

(* Cycle on 6, i buys edge to i+1 mod 6. *)
let cyc6 = Strategy.of_buys ~n:6 (Ncg_gen.Classic.cycle_buys 6)
let cyc6_g = Strategy.graph cyc6

let test_extract_center () =
  let v = View.extract path5 path5_g ~k:1 2 in
  check_int "size" 3 (View.size v);
  (* Ball {1,2,3} renames to {0,1,2}; player 2 becomes 1. *)
  check_int "player id" 1 v.View.player;
  check_int_list "owned" [ 2 ] v.View.owned;
  check_int_list "in_buyers" [ 0 ] v.View.in_buyers;
  check_int "k" 1 v.View.k

let test_extract_distances () =
  let v = View.extract cyc6 cyc6_g ~k:2 0 in
  check_int "size" 5 (View.size v);
  (* View vertices {0,1,2,4,5}: distances from 0 are 0,1,2,2,1. *)
  Alcotest.(check (array int)) "dist" [| 0; 1; 2; 2; 1 |] v.View.dist

let test_full_knowledge_view () =
  let v = View.extract path5 path5_g ~k:100 2 in
  check_int "whole graph" 5 (View.size v);
  check_bool "graph equal" true (Graph.equal v.View.graph path5_g)

let test_frontier () =
  let v = View.extract cyc6 cyc6_g ~k:2 0 in
  (* Frontier = distance exactly 2 = view ids of {2, 4}. *)
  let hosts = View.to_host v (View.frontier v) in
  check_int_list "frontier hosts" [ 2; 4 ] (List.sort compare hosts)

let test_to_of_host_roundtrip () =
  let v = View.extract cyc6 cyc6_g ~k:2 0 in
  let ids = View.of_host v [ 4; 5 ] in
  check_int_list "roundtrip" [ 4; 5 ] (View.to_host v ids);
  Alcotest.check_raises "invisible" (Invalid_argument "View.of_host: vertex not visible")
    (fun () -> ignore (View.of_host v [ 3 ]))

let test_with_strategy_replaces_owned () =
  let v = View.extract path5 path5_g ~k:2 2 in
  (* Player 2 owns edge to 3. Replace with nothing: 3 loses the link to 2
     but keeps 3-4; 1-2 survives (bought by 1). *)
  let h' = View.with_strategy v [] in
  let p = v.View.player in
  let three = List.hd (View.of_host v [ 3 ]) in
  let one = List.hd (View.of_host v [ 1 ]) in
  check_bool "2-3 gone" false (Graph.mem_edge h' p three);
  check_bool "1-2 kept (in-buyer)" true (Graph.mem_edge h' p one);
  (* Replace with an edge to 4. *)
  let four = List.hd (View.of_host v [ 4 ]) in
  let h2 = View.with_strategy v [ four ] in
  check_bool "2-4 added" true (Graph.mem_edge h2 p four)

let test_with_strategy_keeps_double_bought () =
  (* Edge bought from both sides must survive dropping one side. *)
  let s = Strategy.of_buys ~n:2 [ (0, 1); (1, 0) ] in
  let g = Strategy.graph s in
  let v = View.extract s g ~k:1 0 in
  let h' = View.with_strategy v [] in
  check_int "edge survives" 1 (Graph.size h')

let test_with_strategy_validation () =
  let v = View.extract path5 path5_g ~k:1 2 in
  Alcotest.check_raises "self" (Invalid_argument "View.with_strategy: self target")
    (fun () -> ignore (View.with_strategy v [ v.View.player ]));
  Alcotest.check_raises "range"
    (Invalid_argument "View.with_strategy: target out of range") (fun () ->
      ignore (View.with_strategy v [ 99 ]))

let test_k_validation () =
  Alcotest.check_raises "k=0" (Invalid_argument "View.extract: need k >= 1")
    (fun () -> ignore (View.extract path5 path5_g ~k:0 0))

let test_view_includes_cross_edges () =
  (* The view is the INDUCED subgraph: edges between two visible
     neighbours are visible even if neither endpoint is the player. *)
  let s = Strategy.of_buys ~n:4 [ (0, 1); (0, 2); (1, 2); (2, 3) ] in
  let g = Strategy.graph s in
  let v = View.extract s g ~k:1 0 in
  check_int "sees 0,1,2" 3 (View.size v);
  let one = List.hd (View.of_host v [ 1 ]) in
  let two = List.hd (View.of_host v [ 2 ]) in
  check_bool "cross edge 1-2 visible" true (Graph.mem_edge v.View.graph one two)

let test_frontier_empty_full_knowledge () =
  let v = View.extract path5 path5_g ~k:100 2 in
  Alcotest.(check (list int)) "no frontier" [] (View.frontier v)

(* Properties over random trees. *)

let random_setup seed n =
  let rng = Rng.create seed in
  let g = Ncg_gen.Random_tree.generate rng n in
  let s = Strategy.random_orientation rng g in
  (s, Strategy.graph s)

let prop_view_size_matches_ball =
  QCheck.Test.make ~name:"view size = ball size" ~count:100
    QCheck.(triple (int_range 2 30) (int_range 1 5) (int_range 0 1000))
    (fun (n, k, seed) ->
      let s, g = random_setup seed n in
      let u = seed mod n in
      let v = View.extract s g ~k u in
      View.size v = List.length (Ncg_graph.Bfs.ball g u ~radius:k))

let prop_view_distances_match_host =
  QCheck.Test.make ~name:"view preserves distances up to k" ~count:100
    QCheck.(triple (int_range 2 30) (int_range 1 4) (int_range 0 1000))
    (fun (n, k, seed) ->
      let s, g = random_setup seed n in
      let u = seed mod n in
      let v = View.extract s g ~k u in
      let host_dist = Ncg_graph.Bfs.distances g u in
      let ok = ref true in
      Array.iteri
        (fun i h ->
          (* Distances within the induced ball can only match the host
             distance for vertices at distance <= k (shortest paths of
             length <= k stay inside the ball on trees AND in general
             graphs they stay within the ball of radius k). *)
          if v.View.dist.(i) <> host_dist.(h) then ok := false)
        v.View.mapping.Ncg_graph.Subgraph.to_host;
      !ok)

(* One BFS: the ball search's distances are those within the view's
   own graph, on a random connected graph, with and without a scratch. *)
let prop_view_distances_are_bfs =
  QCheck.Test.make ~name:"view dist = BFS distances on the view graph" ~count:100
    QCheck.(triple (int_range 2 30) (int_range 1 4) (int_range 0 1000))
    (fun (n, k, seed) ->
      let rng = Rng.create seed in
      let tree = Ncg_gen.Random_tree.generate rng n in
      let chords = List.init n (fun _ -> (Rng.int rng n, Rng.int rng n)) in
      let g0 = Graph.add_edges tree (List.filter (fun (a, b) -> a <> b) chords) in
      let s = Strategy.random_orientation rng g0 in
      let g = Strategy.graph s in
      let scratch = Ncg_graph.Bfs.create_scratch () in
      List.for_all
        (fun u ->
          let v = View.extract s g ~k u in
          let w = View.extract ~scratch s g ~k u in
          let expect = Ncg_graph.Bfs.distances v.View.graph v.View.player in
          v.View.dist = expect && w.View.dist = expect)
        (List.init n Fun.id))

let prop_owned_always_visible =
  QCheck.Test.make ~name:"owned targets and in-buyers are always in view" ~count:100
    QCheck.(triple (int_range 2 30) (int_range 1 4) (int_range 0 1000))
    (fun (n, k, seed) ->
      let s, g = random_setup seed n in
      let u = seed mod n in
      let v = View.extract s g ~k u in
      List.length v.View.owned = List.length (Strategy.owned s u)
      && List.length v.View.in_buyers = List.length (Strategy.in_buyers s g u)
      && List.for_all (fun x -> v.View.dist.(x) = 1) v.View.owned)

let () =
  Alcotest.run "ncg_view"
    [
      ( "extract",
        [
          Alcotest.test_case "center of path" `Quick test_extract_center;
          Alcotest.test_case "distances" `Quick test_extract_distances;
          Alcotest.test_case "full knowledge" `Quick test_full_knowledge_view;
          Alcotest.test_case "frontier" `Quick test_frontier;
          Alcotest.test_case "host mapping" `Quick test_to_of_host_roundtrip;
          Alcotest.test_case "k validated" `Quick test_k_validation;
          Alcotest.test_case "cross edges included" `Quick test_view_includes_cross_edges;
          Alcotest.test_case "empty frontier" `Quick test_frontier_empty_full_knowledge;
        ] );
      ( "with_strategy",
        [
          Alcotest.test_case "replaces owned" `Quick test_with_strategy_replaces_owned;
          Alcotest.test_case "keeps double-bought" `Quick test_with_strategy_keeps_double_bought;
          Alcotest.test_case "validation" `Quick test_with_strategy_validation;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_view_size_matches_ball;
          QCheck_alcotest.to_alcotest prop_view_distances_match_host;
          QCheck_alcotest.to_alcotest prop_view_distances_are_bfs;
          QCheck_alcotest.to_alcotest prop_owned_always_visible;
        ] );
    ]
