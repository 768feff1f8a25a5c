(* Tests for the graph substrate. *)

module Graph = Ncg_graph.Graph
module Bfs = Ncg_graph.Bfs
module Metrics = Ncg_graph.Metrics
module Components = Ncg_graph.Components
module Girth = Ncg_graph.Girth
module Subgraph = Ncg_graph.Subgraph
module Power = Ncg_graph.Power
module Pretty = Ncg_graph.Pretty

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_int_list = Alcotest.(check (list int))
let check_opt_int = Alcotest.(check (option int))

let contains_substring haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let p5 = Graph.of_edges ~n:5 [ (0, 1); (1, 2); (2, 3); (3, 4) ]
let c6 = Graph.of_edges ~n:6 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 0) ]

(* --- Graph construction -------------------------------------------------- *)

let test_of_edges_basic () =
  check_int "order" 5 (Graph.order p5);
  check_int "size" 4 (Graph.size p5);
  check_bool "edge" true (Graph.mem_edge p5 1 2);
  check_bool "symmetric" true (Graph.mem_edge p5 2 1);
  check_bool "non-edge" false (Graph.mem_edge p5 0 2);
  check_int "degree mid" 2 (Graph.degree p5 1);
  check_int "degree end" 1 (Graph.degree p5 0)

let test_duplicate_edges_collapse () =
  let g = Graph.of_edges ~n:3 [ (0, 1); (1, 0); (0, 1) ] in
  check_int "size" 1 (Graph.size g);
  check_int "degree" 1 (Graph.degree g 0)

let test_self_loop_rejected () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.of_edges: self loop")
    (fun () -> ignore (Graph.of_edges ~n:3 [ (1, 1) ]))

let test_out_of_range_rejected () =
  Alcotest.check_raises "range" (Invalid_argument "Graph: vertex out of range")
    (fun () -> ignore (Graph.of_edges ~n:3 [ (0, 3) ]))

let test_neighbors_sorted () =
  let g = Graph.of_edges ~n:5 [ (2, 4); (2, 0); (2, 3); (2, 1) ] in
  Alcotest.(check (array int)) "sorted" [| 0; 1; 3; 4 |] (Graph.neighbors g 2)

let test_edges_listing () =
  check_int_list "edges" [ 0; 1; 2; 3 ] (List.map fst (Graph.edges p5));
  check_int "edge count matches size" (Graph.size c6) (List.length (Graph.edges c6))

let test_add_remove () =
  let g = Graph.add_edges p5 [ (0, 4) ] in
  check_bool "added" true (Graph.mem_edge g 0 4);
  check_int "size" 5 (Graph.size g);
  let g' = Graph.remove_vertex_edges g 2 in
  check_int "vertex kept" 5 (Graph.order g');
  check_int "degree zero" 0 (Graph.degree g' 2);
  check_bool "other edges kept" true (Graph.mem_edge g' 0 1)

let test_graph_equal () =
  let a = Graph.of_edges ~n:3 [ (0, 1); (1, 2) ] in
  let b = Graph.of_edges ~n:3 [ (1, 2); (0, 1) ] in
  check_bool "equal" true (Graph.equal a b);
  check_bool "not equal" false (Graph.equal a (Graph.of_edges ~n:3 [ (0, 1) ]))

(* --- BFS ------------------------------------------------------------------ *)

let test_bfs_distances_path () =
  Alcotest.(check (array int)) "path dists" [| 0; 1; 2; 3; 4 |] (Bfs.distances p5 0)

let test_bfs_distances_cycle () =
  Alcotest.(check (array int)) "cycle dists" [| 0; 1; 2; 3; 2; 1 |] (Bfs.distances c6 0)

let test_bfs_unreachable () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  let d = Bfs.distances g 0 in
  check_int "unreachable" Bfs.unreachable d.(2)

let test_bfs_radius_limited () =
  let d = Bfs.distances_within p5 0 ~radius:2 in
  check_int "inside" 2 d.(2);
  check_int "outside" Bfs.unreachable d.(3)

let test_ball () =
  check_int_list "ball r1" [ 0; 1; 5 ] (Bfs.ball c6 0 ~radius:1);
  check_int_list "ball r2" [ 0; 1; 2; 4; 5 ] (Bfs.ball c6 0 ~radius:2);
  check_int_list "ball r0" [ 3 ] (Bfs.ball c6 3 ~radius:0)

let test_eccentricity () =
  check_opt_int "path end" (Some 4) (Bfs.eccentricity p5 0);
  check_opt_int "path mid" (Some 2) (Bfs.eccentricity p5 2);
  check_opt_int "cycle" (Some 3) (Bfs.eccentricity c6 0);
  let g = Graph.of_edges ~n:3 [ (0, 1) ] in
  check_opt_int "disconnected" None (Bfs.eccentricity g 0)

let test_sum_distances () =
  check_opt_int "path end" (Some 10) (Bfs.sum_distances p5 0);
  check_opt_int "cycle" (Some 9) (Bfs.sum_distances c6 0)

let test_is_connected () =
  check_bool "path" true (Bfs.is_connected p5);
  check_bool "disconnected" false (Bfs.is_connected (Graph.of_edges ~n:3 [ (0, 1) ]));
  check_bool "empty graph" true (Bfs.is_connected (Graph.empty 0));
  check_bool "singleton" true (Bfs.is_connected (Graph.empty 1))

let test_shortest_path () =
  (match Bfs.shortest_path c6 0 3 with
  | Some p ->
      check_int "length" 4 (List.length p);
      check_int "starts" 0 (List.hd p);
      check_int "ends" 3 (List.nth p 3)
  | None -> Alcotest.fail "expected path");
  Alcotest.(check (option (list int)))
    "unreachable" None
    (Bfs.shortest_path (Graph.of_edges ~n:3 [ (0, 1) ]) 0 2);
  Alcotest.(check (option (list int))) "self" (Some [ 1 ]) (Bfs.shortest_path c6 1 1)

(* --- Metrics --------------------------------------------------------------- *)

let test_diameter_radius () =
  check_opt_int "path diameter" (Some 4) (Metrics.diameter p5);
  check_opt_int "path radius" (Some 2) (Metrics.radius p5);
  check_opt_int "cycle diameter" (Some 3) (Metrics.diameter c6);
  check_opt_int "cycle radius" (Some 3) (Metrics.radius c6);
  check_opt_int "disconnected" None (Metrics.diameter (Graph.empty 2));
  check_opt_int "empty" None (Metrics.diameter (Graph.empty 0))

let test_degree_stats () =
  check_int "max degree path" 2 (Metrics.max_degree p5);
  Alcotest.(check (float 1e-9)) "avg degree" (8.0 /. 5.0) (Metrics.avg_degree p5)

let test_total_distance () =
  check_opt_int "path P5" (Some 40) (Metrics.total_distance p5)

let test_distance_matrix () =
  let m = Metrics.distance_matrix c6 in
  check_int "symmetric" m.(1).(4) m.(4).(1);
  check_int "diag" 0 m.(3).(3)

(* --- Components ------------------------------------------------------------ *)

let test_components () =
  let g = Graph.of_edges ~n:6 [ (0, 1); (1, 2); (3, 4) ] in
  check_int "count" 3 (Components.count g);
  Alcotest.(check (list (list int)))
    "components" [ [ 0; 1; 2 ]; [ 3; 4 ]; [ 5 ] ] (Components.components g);
  check_bool "same" true (Components.same_component g 0 2);
  check_bool "different" false (Components.same_component g 0 3)

(* --- Girth ------------------------------------------------------------------ *)

let test_girth () =
  check_opt_int "tree: none" None (Girth.girth p5);
  check_opt_int "c6" (Some 6) (Girth.girth c6);
  check_opt_int "triangle" (Some 3)
    (Girth.girth (Graph.of_edges ~n:3 [ (0, 1); (1, 2); (2, 0) ]));
  check_opt_int "chorded C6" (Some 4) (Girth.girth (Graph.add_edges c6 [ (0, 3) ]));
  check_bool "at least: tree" true (Girth.girth_at_least p5 100);
  check_bool "at least 6 yes" true (Girth.girth_at_least c6 6);
  check_bool "at least 7 no" false (Girth.girth_at_least c6 7)

let test_girth_petersen () =
  (* The Petersen graph: girth 5, diameter 2. *)
  let outer = List.init 5 (fun i -> (i, (i + 1) mod 5)) in
  let spokes = List.init 5 (fun i -> (i, i + 5)) in
  let inner = List.init 5 (fun i -> (5 + i, 5 + ((i + 2) mod 5))) in
  let petersen = Graph.of_edges ~n:10 (outer @ spokes @ inner) in
  check_opt_int "petersen girth" (Some 5) (Girth.girth petersen);
  check_opt_int "petersen diameter" (Some 2) (Metrics.diameter petersen)

(* --- Subgraph ----------------------------------------------------------------- *)

let test_induced () =
  let sub, m = Subgraph.induced c6 [ 4; 0; 5; 0 ] in
  check_int "order" 3 (Graph.order sub);
  check_int "size" 2 (Graph.size sub);
  Alcotest.(check (array int)) "to_host" [| 0; 4; 5 |] m.Subgraph.to_host;
  check_int "to_sub" 2 m.Subgraph.to_sub.(5);
  check_int "absent" (-1) m.Subgraph.to_sub.(2);
  check_bool "edge kept" true
    (Graph.mem_edge sub m.Subgraph.to_sub.(4) m.Subgraph.to_sub.(5))

let test_ball_induced () =
  let sub, m = Subgraph.ball_induced p5 2 ~radius:1 in
  check_int "order" 3 (Graph.order sub);
  check_int "center" 1 m.Subgraph.to_sub.(2);
  check_int "size" 2 (Graph.size sub)

(* --- Power ------------------------------------------------------------------- *)

let test_power () =
  let sq = Power.power p5 2 in
  check_bool "dist2 edge" true (Graph.mem_edge sq 0 2);
  check_bool "dist3 no edge" false (Graph.mem_edge sq 0 3);
  check_bool "keeps dist1" true (Graph.mem_edge sq 0 1);
  let p1 = Power.power p5 1 in
  check_bool "power 1 = id" true (Graph.equal p1 p5);
  let p0 = Power.power p5 0 in
  check_int "power 0 empty" 0 (Graph.size p0);
  let big = Power.power p5 10 in
  check_int "saturates to complete" (5 * 4 / 2) (Graph.size big)

(* --- Pretty -------------------------------------------------------------------- *)

let test_pretty_roundtrip () =
  let s = Pretty.to_edge_list_string c6 in
  let g = Pretty.of_edge_list_string ~n:6 s in
  check_bool "roundtrip" true (Graph.equal g c6)

let test_dot_contains_edges () =
  let dot = Pretty.to_dot p5 in
  check_bool "has edge 0 -- 1" true (contains_substring dot "0 -- 1");
  check_bool "has closing brace" true (contains_substring dot "}")

let test_adjacency_string () =
  let s = Pretty.to_adjacency_string (Graph.of_edges ~n:2 [ (0, 1) ]) in
  Alcotest.(check string) "dump" "0: 1\n1: 0\n" s

(* --- Properties ------------------------------------------------------------------ *)

let random_graph_gen =
  QCheck.Gen.(
    int_range 2 30 >>= fun n ->
    int_range 0 (n * 2) >>= fun extra ->
    list_repeat (n - 1) (int_bound 1000) >>= fun tree_choices ->
    list_repeat extra (pair (int_bound (n - 1)) (int_bound (n - 1))) >>= fun pairs ->
    let tree_edges = List.mapi (fun i c -> (i + 1, c mod (i + 1))) tree_choices in
    let extra_edges = List.filter (fun (a, b) -> a <> b) pairs in
    return (Ncg_graph.Graph.of_edges ~n (tree_edges @ extra_edges)))

let arb_graph = QCheck.make ~print:Pretty.to_adjacency_string random_graph_gen

let prop_bfs_triangle_inequality =
  QCheck.Test.make ~name:"BFS distances satisfy the triangle inequality" ~count:50
    arb_graph (fun g ->
      let n = Graph.order g in
      let d = Metrics.distance_matrix g in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          for w = 0 to n - 1 do
            if d.(u).(v) > d.(u).(w) + d.(w).(v) then ok := false
          done
        done
      done;
      !ok)

let prop_bfs_edge_consistency =
  QCheck.Test.make ~name:"adjacent vertices have distance 1" ~count:100 arb_graph
    (fun g ->
      let ok = ref true in
      Graph.iter_edges
        (fun u v ->
          let d = Bfs.distances g u in
          if d.(v) <> 1 then ok := false)
        g;
      !ok)

let prop_diameter_vs_eccentricity =
  QCheck.Test.make ~name:"diameter = max ecc, radius = min ecc, r<=d<=2r" ~count:100
    arb_graph (fun g ->
      match (Metrics.diameter g, Metrics.radius g, Metrics.eccentricities g) with
      | Some d, Some r, Some eccs ->
          d = Array.fold_left max 0 eccs
          && r = Array.fold_left min max_int eccs
          && r <= d
          && d <= 2 * r
      | _ -> false)

let prop_power_monotone =
  QCheck.Test.make ~name:"graph powers are monotone in h" ~count:50 arb_graph
    (fun g ->
      let p2 = Power.power g 2 and p3 = Power.power g 3 in
      let ok = ref true in
      Graph.iter_edges (fun u v -> if not (Graph.mem_edge p3 u v) then ok := false) p2;
      !ok)

let prop_handshake =
  QCheck.Test.make ~name:"sum of degrees = 2m" ~count:100 arb_graph (fun g ->
      let sum = Graph.fold_vertices (fun u acc -> acc + Graph.degree g u) g 0 in
      sum = 2 * Graph.size g)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "ncg_graph"
    [
      ( "construction",
        [
          Alcotest.test_case "of_edges" `Quick test_of_edges_basic;
          Alcotest.test_case "duplicates collapse" `Quick test_duplicate_edges_collapse;
          Alcotest.test_case "self loop rejected" `Quick test_self_loop_rejected;
          Alcotest.test_case "range checked" `Quick test_out_of_range_rejected;
          Alcotest.test_case "neighbors sorted" `Quick test_neighbors_sorted;
          Alcotest.test_case "edges listing" `Quick test_edges_listing;
          Alcotest.test_case "add/remove" `Quick test_add_remove;
          Alcotest.test_case "equal" `Quick test_graph_equal;
        ] );
      ( "bfs",
        [
          Alcotest.test_case "path distances" `Quick test_bfs_distances_path;
          Alcotest.test_case "cycle distances" `Quick test_bfs_distances_cycle;
          Alcotest.test_case "unreachable" `Quick test_bfs_unreachable;
          Alcotest.test_case "radius limited" `Quick test_bfs_radius_limited;
          Alcotest.test_case "ball" `Quick test_ball;
          Alcotest.test_case "eccentricity" `Quick test_eccentricity;
          Alcotest.test_case "sum distances" `Quick test_sum_distances;
          Alcotest.test_case "connectivity" `Quick test_is_connected;
          Alcotest.test_case "shortest path" `Quick test_shortest_path;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "diameter/radius" `Quick test_diameter_radius;
          Alcotest.test_case "degrees" `Quick test_degree_stats;
          Alcotest.test_case "total distance" `Quick test_total_distance;
          Alcotest.test_case "distance matrix" `Quick test_distance_matrix;
        ] );
      ("components", [ Alcotest.test_case "labels/count" `Quick test_components ]);
      ( "girth",
        [
          Alcotest.test_case "small cases" `Quick test_girth;
          Alcotest.test_case "petersen" `Quick test_girth_petersen;
        ] );
      ( "subgraph",
        [
          Alcotest.test_case "induced" `Quick test_induced;
          Alcotest.test_case "ball induced" `Quick test_ball_induced;
        ] );
      ( "power", [ Alcotest.test_case "powers" `Quick test_power ] );
      ( "pretty",
        [
          Alcotest.test_case "edge list roundtrip" `Quick test_pretty_roundtrip;
          Alcotest.test_case "dot output" `Quick test_dot_contains_edges;
          Alcotest.test_case "adjacency dump" `Quick test_adjacency_string;
        ] );
      ( "properties",
        [
          qt prop_bfs_triangle_inequality;
          qt prop_bfs_edge_consistency;
          qt prop_diameter_vs_eccentricity;
          qt prop_power_monotone;
          qt prop_handshake;
        ] );
    ]
