(* Tests for strategy profiles and the two cost models. *)

module Graph = Ncg_graph.Graph
module Strategy = Ncg.Strategy
module Game = Ncg.Game
module Rng = Ncg_prng.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let checkf msg = Alcotest.(check (float 1e-9)) msg
let check_opt_int = Alcotest.(check (option int))

(* Path 0-1-2 where i buys the edge to i+1. *)
let path3 = Strategy.of_buys ~n:3 [ (0, 1); (1, 2) ]

(* --- Strategy ------------------------------------------------------------- *)

let test_strategy_basics () =
  check_int "n" 3 (Strategy.n_players path3);
  Alcotest.(check (list int)) "owned 0" [ 1 ] (Strategy.owned path3 0);
  Alcotest.(check (list int)) "owned 2" [] (Strategy.owned path3 2);
  check_bool "owns" true (Strategy.owns path3 0 1);
  check_bool "not owns reverse" false (Strategy.owns path3 1 0);
  check_int "bought 1" 1 (Strategy.bought_count path3 1);
  check_int "total" 2 (Strategy.total_bought path3)

let test_strategy_graph () =
  let g = Strategy.graph path3 in
  check_int "edges" 2 (Graph.size g);
  check_bool "0-1" true (Graph.mem_edge g 0 1);
  check_bool "1-2" true (Graph.mem_edge g 1 2)

let test_double_purchase_single_edge () =
  (* Both endpoints buy: one edge in the graph, two purchases in costs. *)
  let s = Strategy.of_buys ~n:2 [ (0, 1); (1, 0) ] in
  check_int "graph has one edge" 1 (Graph.size (Strategy.graph s));
  check_int "two purchases" 2 (Strategy.total_bought s)

let test_with_owned () =
  let s = Strategy.with_owned path3 0 [ 2 ] in
  Alcotest.(check (list int)) "updated" [ 2 ] (Strategy.owned s 0);
  Alcotest.(check (list int)) "original untouched" [ 1 ] (Strategy.owned path3 0);
  Alcotest.(check (list int)) "dedup" [ 2 ]
    (Strategy.owned (Strategy.with_owned path3 0 [ 2; 2 ]) 0)

let test_in_buyers () =
  let g = Strategy.graph path3 in
  Alcotest.(check (list int)) "buyers of 1" [ 0 ] (Strategy.in_buyers path3 g 1);
  Alcotest.(check (list int)) "buyers of 0" [] (Strategy.in_buyers path3 g 0)

let test_strategy_validation () =
  Alcotest.check_raises "self edge"
    (Invalid_argument "Strategy: a player cannot buy a self edge") (fun () ->
      ignore (Strategy.of_buys ~n:3 [ (1, 1) ]));
  Alcotest.check_raises "range" (Invalid_argument "Strategy: player out of range")
    (fun () -> ignore (Strategy.with_owned path3 0 [ 5 ]))

let test_random_orientation () =
  let rng = Rng.create 5 in
  let g = Ncg_gen.Classic.cycle 10 in
  let s = Strategy.random_orientation rng g in
  check_bool "same graph" true (Graph.equal g (Strategy.graph s));
  check_int "one purchase per edge" (Graph.size g) (Strategy.total_bought s)

let test_serialization_roundtrip () =
  let samples =
    [
      path3;
      Strategy.create ~n:4;
      Strategy.of_buys ~n:5 (Ncg_gen.Classic.star_buys 5);
      Strategy.of_buys ~n:2 [ (0, 1); (1, 0) ];
    ]
  in
  List.iter
    (fun s ->
      let s' = Strategy.of_string (Strategy.to_string s) in
      check_bool "roundtrip" true (Strategy.equal s s'))
    samples

let test_serialization_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Strategy.of_string: empty input")
    (fun () -> ignore (Strategy.of_string ""));
  Alcotest.check_raises "bad count"
    (Invalid_argument "Strategy.of_string: bad player count") (fun () ->
      ignore (Strategy.of_string "abc\n"));
  Alcotest.check_raises "too few lines"
    (Invalid_argument "Strategy.of_string: wrong number of player lines") (fun () ->
      ignore (Strategy.of_string "3\n1\n"));
  Alcotest.check_raises "excess non-blank lines"
    (Invalid_argument "Strategy.of_string: wrong number of player lines") (fun () ->
      ignore (Strategy.of_string "1\n\n0 2\n"));
  Alcotest.check_raises "bad target" (Invalid_argument "Strategy.of_string: bad target")
    (fun () -> ignore (Strategy.of_string "2\nx\n\n"));
  Alcotest.check_raises "range check inherited"
    (Invalid_argument "Strategy: player out of range") (fun () ->
      ignore (Strategy.of_string "2\n5\n\n"))

let prop_serialization_roundtrip =
  QCheck.Test.make ~name:"to_string/of_string roundtrip on random profiles" ~count:100
    QCheck.(pair (int_range 2 20) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let g = Ncg_gen.Random_tree.generate rng n in
      let s = Strategy.random_orientation rng g in
      Strategy.equal s (Strategy.of_string (Strategy.to_string s)))

(* The neighbourhood search against a scan of every player, over random
   [with_owned] sequences, on the new network and — for the mover — on
   the network before her move. *)
let prop_in_buyers_scan =
  QCheck.Test.make ~name:"in_buyers = scan over random with_owned sequences"
    ~count:200
    QCheck.(triple (int_range 2 15) (int_range 0 10_000) (int_range 1 30))
    (fun (n, seed, steps) ->
      let rng = Rng.create seed in
      let s0 = Strategy.random_orientation rng (Ncg_gen.Random_tree.generate rng n) in
      let players = List.init n Fun.id in
      let scan s u = List.filter (fun v -> Strategy.owns s v u) players in
      let rec walk s i =
        i = 0
        || begin
             let u = Rng.int rng n in
             let targets = List.filter (fun v -> v <> u && Rng.bool rng) players in
             let s' = Strategy.with_owned s u targets in
             let g' = Strategy.graph s' in
             List.for_all (fun v -> Strategy.in_buyers s' g' v = scan s' v) players
             && Strategy.in_buyers s' (Strategy.graph s) u = scan s' u
             && walk s' (i - 1)
           end
      in
      walk s0 steps)

(* [recentre] carries one adjacency across a sequence of one-player
   changes, through buffer swaps and arc-buffer growth. *)
let prop_recentre =
  QCheck.Test.make ~name:"recentre = graph after one-player changes" ~count:200
    QCheck.(pair (int_range 2 20) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let s0 = Strategy.random_orientation rng (Ncg_gen.Random_tree.generate rng n) in
      let adj = Graph.adjacency (Strategy.graph s0) in
      let rec walk s i =
        i = 0
        ||
        let u = Rng.int rng n in
        let targets =
          List.filter (fun v -> v <> u && Rng.bernoulli rng 0.3) (List.init n Fun.id)
        in
        let s' = Strategy.with_owned s u targets in
        Strategy.recentre s' adj u;
        Graph.equal (Graph.borrow adj) (Strategy.graph s') && walk s' (i - 1)
      in
      walk s0 8)

let test_key_and_equal () =
  let a = Strategy.of_buys ~n:3 [ (0, 1); (1, 2) ] in
  check_bool "equal" true (Strategy.equal a path3);
  Alcotest.(check string) "same key" (Strategy.to_key a) (Strategy.to_key path3);
  let b = Strategy.with_owned a 0 [ 2 ] in
  check_bool "not equal" false (Strategy.equal a b);
  check_bool "different key" true (Strategy.to_key a <> Strategy.to_key b)

(* --- Usage and costs -------------------------------------------------------- *)

let test_usage () =
  let g = Strategy.graph path3 in
  check_opt_int "max end" (Some 2) (Game.usage Game.Max g 0);
  check_opt_int "max mid" (Some 1) (Game.usage Game.Max g 1);
  check_opt_int "sum end" (Some 3) (Game.usage Game.Sum g 0);
  check_opt_int "sum mid" (Some 2) (Game.usage Game.Sum g 1)

let test_player_cost () =
  let g = Strategy.graph path3 in
  Alcotest.(check (option (float 1e-9)))
    "max cost 0" (Some 4.0)
    (Game.player_cost Game.Max ~alpha:2.0 path3 g 0);
  Alcotest.(check (option (float 1e-9)))
    "max cost 2 (owns nothing)" (Some 2.0)
    (Game.player_cost Game.Max ~alpha:2.0 path3 g 2);
  Alcotest.(check (option (float 1e-9)))
    "sum cost 1" (Some 4.0)
    (Game.player_cost Game.Sum ~alpha:2.0 path3 g 1)

let test_social_cost () =
  (match Game.social_cost Game.Max ~alpha:2.0 path3 with
  | Some c -> checkf "max social" 9.0 c
  | None -> Alcotest.fail "connected");
  match Game.social_cost Game.Sum ~alpha:2.0 path3 with
  | Some c -> checkf "sum social" 12.0 c
  | None -> Alcotest.fail "connected"

let test_disconnected_cost () =
  let s = Strategy.of_buys ~n:3 [ (0, 1) ] in
  check_bool "none" true (Game.social_cost Game.Max ~alpha:1.0 s = None);
  check_bool "player none" true
    (Game.player_cost Game.Sum ~alpha:1.0 s (Strategy.graph s) 2 = None)

let test_social_optimum () =
  (* Max, alpha = 2, n = 5: star = 2*4 + 1 + 8 = 17 < clique 25. *)
  checkf "max star" 17.0 (Game.social_optimum Game.Max ~alpha:2.0 ~n:5);
  (* Max, alpha = 0.1, n = 5: clique = 1 + 5 = 6 < star 9.4. *)
  checkf "max clique" 6.0 (Game.social_optimum Game.Max ~alpha:0.1 ~n:5);
  (* Sum, alpha = 3, n = 4: star = 9 + 3 + 3*5 = 27; clique = 18 + 12 = 30. *)
  checkf "sum star" 27.0 (Game.social_optimum Game.Sum ~alpha:3.0 ~n:4);
  checkf "n=1 trivial" 0.0 (Game.social_optimum Game.Max ~alpha:3.0 ~n:1);
  checkf "n=2 max" 3.0 (Game.social_optimum Game.Max ~alpha:1.0 ~n:2);
  Alcotest.check_raises "n=0" (Invalid_argument "Game.social_optimum: need n >= 1")
    (fun () -> ignore (Game.social_optimum Game.Max ~alpha:1.0 ~n:0))

let test_quality_of_star_is_one () =
  (* The star with the center buying everything is the social optimum for
     alpha >= 1 (Max): its quality must be exactly 1. *)
  let n = 7 in
  let s = Strategy.of_buys ~n (Ncg_gen.Classic.star_buys n) in
  match Game.quality Game.Max ~alpha:2.0 s with
  | Some q -> checkf "quality 1" 1.0 q
  | None -> Alcotest.fail "connected"

let test_unfairness () =
  (* Symmetric cycle: every cost equal, unfairness = 1. *)
  let n = 8 in
  let s = Strategy.of_buys ~n (Ncg_gen.Classic.cycle_buys n) in
  let g = Strategy.graph s in
  (match Game.unfairness Game.Max ~alpha:1.0 s g with
  | Some u -> checkf "cycle fair" 1.0 u
  | None -> Alcotest.fail "connected");
  (* Star n=5, alpha=1: center cost 4+1=5, leaves 2: ratio 2.5. *)
  let star = Strategy.of_buys ~n:5 (Ncg_gen.Classic.star_buys 5) in
  match Game.unfairness Game.Max ~alpha:1.0 star (Strategy.graph star) with
  | Some u -> checkf "star unfair" 2.5 u
  | None -> Alcotest.fail "connected"

(* Property: Sum social cost = alpha * purchases + total pairwise distance. *)
let prop_social_cost_decomposition =
  QCheck.Test.make ~name:"social cost = alpha*purchases + total usage" ~count:100
    QCheck.(triple (int_range 2 20) (int_range 0 1000) (float_bound_exclusive 5.0))
    (fun (n, seed, alpha_raw) ->
      let alpha = alpha_raw +. 0.01 in
      let rng = Rng.create seed in
      let g = Ncg_gen.Random_tree.generate rng n in
      let s = Strategy.random_orientation rng g in
      match
        (Game.social_cost Game.Sum ~alpha s, Ncg_graph.Metrics.total_distance g)
      with
      | Some cost, Some dist ->
          abs_float
            (cost
            -. ((alpha *. float_of_int (Strategy.total_bought s)) +. float_of_int dist))
          < 1e-6
      | _ -> false)

let prop_star_optimal_for_max =
  QCheck.Test.make ~name:"no random config beats the reference optimum (alpha>=1)"
    ~count:100
    QCheck.(triple (int_range 3 15) (int_range 0 1000) (float_range 1.0 5.0))
    (fun (n, seed, alpha) ->
      let rng = Rng.create seed in
      let g = Ncg_gen.Random_tree.generate rng n in
      let s = Strategy.random_orientation rng g in
      match Game.social_cost Game.Max ~alpha s with
      | Some cost -> cost >= Game.social_optimum Game.Max ~alpha ~n -. 1e-9
      | None -> false)

let () =
  Alcotest.run "ncg_game"
    [
      ( "strategy",
        [
          Alcotest.test_case "basics" `Quick test_strategy_basics;
          Alcotest.test_case "graph" `Quick test_strategy_graph;
          Alcotest.test_case "double purchase" `Quick test_double_purchase_single_edge;
          Alcotest.test_case "with_owned" `Quick test_with_owned;
          Alcotest.test_case "in_buyers" `Quick test_in_buyers;
          Alcotest.test_case "validation" `Quick test_strategy_validation;
          Alcotest.test_case "random orientation" `Quick test_random_orientation;
          Alcotest.test_case "key/equal" `Quick test_key_and_equal;
          Alcotest.test_case "serialization roundtrip" `Quick test_serialization_roundtrip;
          Alcotest.test_case "serialization errors" `Quick test_serialization_errors;
          QCheck_alcotest.to_alcotest prop_serialization_roundtrip;
          QCheck_alcotest.to_alcotest prop_in_buyers_scan;
          QCheck_alcotest.to_alcotest prop_recentre;
        ] );
      ( "costs",
        [
          Alcotest.test_case "usage" `Quick test_usage;
          Alcotest.test_case "player cost" `Quick test_player_cost;
          Alcotest.test_case "social cost" `Quick test_social_cost;
          Alcotest.test_case "disconnected" `Quick test_disconnected_cost;
          Alcotest.test_case "social optimum" `Quick test_social_optimum;
          Alcotest.test_case "star quality" `Quick test_quality_of_star_is_one;
          Alcotest.test_case "unfairness" `Quick test_unfairness;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_social_cost_decomposition;
          QCheck_alcotest.to_alcotest prop_star_optimal_for_max;
        ] );
    ]
