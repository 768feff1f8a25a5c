(* Tests for the exact MaxNCG best response (Section 5.3 reduction). *)

module Strategy = Ncg.Strategy
module View = Ncg.View
module Best_response = Ncg.Best_response
module Rng = Ncg_prng.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let checkf msg = Alcotest.(check (float 1e-9)) msg

let view_of strategy ~k u = View.extract strategy (Strategy.graph strategy) ~k u

(* Reference: brute-force best response on the view (all subsets). *)
let brute_force_cost ~alpha (v : View.t) =
  let nv = View.size v in
  let others = List.filter (fun x -> x <> v.View.player) (List.init nv Fun.id) in
  let m = List.length others in
  let others = Array.of_list others in
  let best = ref infinity in
  for mask = 0 to (1 lsl m) - 1 do
    let targets = ref [] in
    for i = 0 to m - 1 do
      if mask land (1 lsl i) <> 0 then targets := others.(i) :: !targets
    done;
    let h' = View.with_strategy v !targets in
    match Ncg_graph.Bfs.eccentricity h' v.View.player with
    | Some ecc ->
        let c = (alpha *. float_of_int (List.length !targets)) +. float_of_int ecc in
        if c < !best then best := c
    | None -> ()
  done;
  !best

(* --- Hand-computed cases -------------------------------------------------- *)

let test_current_cost () =
  let s = Strategy.of_buys ~n:5 [ (0, 1); (1, 2); (2, 3); (3, 4) ] in
  let v = view_of s ~k:10 0 in
  check_int "usage" 4 (Best_response.current_usage v);
  checkf "cost" 5.0 (Best_response.current_cost ~alpha:1.0 v)

let test_path_end_player () =
  (* Path 0-1-2-3-4, player 0, alpha 1, full view: best cost is 4
     (e.g. buy {2,4}: eccentricity 2). *)
  let s = Strategy.of_buys ~n:5 [ (0, 1); (1, 2); (2, 3); (3, 4) ] in
  let v = view_of s ~k:10 0 in
  let o = Best_response.compute ~alpha:1.0 v in
  checkf "best cost" 4.0 o.Best_response.cost;
  check_int "consistent usage" o.Best_response.usage
    (int_of_float (o.Best_response.cost -. (1.0 *. float_of_int (List.length o.Best_response.targets))))

let test_star_leaf_small_alpha () =
  (* Star n=4, center 0 owns all. A leaf can reach eccentricity 1 by buying
     the 2 other leaves: improving iff 2*alpha + 1 < 2. *)
  let s = Strategy.of_buys ~n:4 (Ncg_gen.Classic.star_buys 4) in
  let v = view_of s ~k:2 1 in
  let cheap = Best_response.compute ~alpha:0.3 v in
  checkf "buys both leaves" 1.6 cheap.Best_response.cost;
  check_int "two edges" 2 (List.length cheap.Best_response.targets);
  let dear = Best_response.compute ~alpha:0.7 v in
  checkf "stays put" 2.0 dear.Best_response.cost;
  check_int "no edges" 0 (List.length dear.Best_response.targets)

let test_star_center_stays () =
  (* The center owning everything has no improving move for alpha > 0:
     dropping disconnects, buying is impossible (already adjacent). *)
  let s = Strategy.of_buys ~n:6 (Ncg_gen.Classic.star_buys 6) in
  let v = view_of s ~k:2 0 in
  check_bool "no improvement" true (Best_response.improving ~alpha:2.0 v = None)

let test_free_dominators_used () =
  (* Path 0-1-2 where 1 bought the edge to 2. Player 2 owns nothing;
     with alpha=0.5 buying the edge to 0 gives cost 1.5 < 2. *)
  let s = Strategy.of_buys ~n:3 [ (0, 1); (1, 2) ] in
  let v = view_of s ~k:2 2 in
  let o = Best_response.compute ~alpha:0.5 v in
  checkf "cost" 1.5 o.Best_response.cost;
  Alcotest.(check (list int)) "buys 0" [ 0 ] (View.to_host v o.Best_response.targets)

let test_edge_removal_found () =
  (* Triangle, each buys the next edge, alpha large: dropping the owned
     edge saves alpha and raises eccentricity only 1 -> 2. *)
  let s = Strategy.of_buys ~n:3 [ (0, 1); (1, 2); (2, 0) ] in
  let v = view_of s ~k:1 0 in
  let o = Best_response.compute ~alpha:5.0 v in
  checkf "drops the edge" 2.0 o.Best_response.cost;
  check_int "owns nothing" 0 (List.length o.Best_response.targets)

let test_singleton_view () =
  let s = Strategy.create ~n:1 in
  let g = Strategy.graph s in
  let v = View.extract s g ~k:3 0 in
  let o = Best_response.compute ~alpha:1.0 v in
  checkf "zero cost" 0.0 o.Best_response.cost

let test_local_vs_full_view () =
  (* Cycle C10, k=2: a player only sees a path of length 4 and cannot tell
     buying a chord helps; with full knowledge (k large) and small alpha
     there are improving moves. *)
  let s = Strategy.of_buys ~n:10 (Ncg_gen.Classic.cycle_buys 10) in
  let local = view_of s ~k:2 0 in
  check_bool "locally stable at alpha=1.2" true
    (Best_response.improving ~alpha:1.2 local = None);
  let full = view_of s ~k:100 0 in
  check_bool "globally improvable at alpha=1.2" true
    (Best_response.improving ~alpha:1.2 full <> None)

let test_greedy_never_beats_exact () =
  let s = Strategy.of_buys ~n:10 (Ncg_gen.Classic.cycle_buys 10) in
  let v = view_of s ~k:100 0 in
  let exact = Best_response.compute ~solver:`Exact ~alpha:0.4 v in
  let greedy = Best_response.compute ~solver:`Greedy ~alpha:0.4 v in
  check_bool "greedy >= exact" true
    (greedy.Best_response.cost >= exact.Best_response.cost -. 1e-9)

let test_improving_threshold () =
  (* improving = None exactly when best cost >= current. *)
  let s = Strategy.of_buys ~n:4 (Ncg_gen.Classic.star_buys 4) in
  let v = view_of s ~k:2 1 in
  (* At alpha = 0.5, buying both leaves costs 2.0 = current: not strictly
     improving. *)
  check_bool "tie is not improving" true (Best_response.improving ~alpha:0.5 v = None)

(* --- Restricted variants (budget cap, host graph) ---------------------------- *)

let test_budget_cap () =
  (* Star leaf at alpha = 0.3 buys both other leaves unrestricted, but a
     budget of 1 forces the single-edge compromise. *)
  let s = Strategy.of_buys ~n:4 (Ncg_gen.Classic.star_buys 4) in
  let v = view_of s ~k:2 1 in
  let unrestricted = Best_response.compute ~alpha:0.3 v in
  check_int "buys 2" 2 (List.length unrestricted.Best_response.targets);
  let capped = Best_response.compute ~max_edges:1 ~alpha:0.3 v in
  check_bool "within budget" true (List.length capped.Best_response.targets <= 1);
  check_bool "costlier than unrestricted" true
    (capped.Best_response.cost >= unrestricted.Best_response.cost -. 1e-9)

let test_budget_current_violation () =
  let s = Strategy.of_buys ~n:6 (Ncg_gen.Classic.star_buys 6) in
  let v = view_of s ~k:2 0 in
  Alcotest.check_raises "center owns 5 > 2"
    (Invalid_argument "Best_response.compute: current strategy exceeds max_edges")
    (fun () -> ignore (Best_response.compute ~max_edges:2 ~alpha:1.0 v))

let test_allowed_targets () =
  (* Path 0..4, player 0, alpha = 1, full view. Unrestricted best response
     has cost 4 (e.g. {2,4}); restricted to targets {1, 2} the best is
     buying {2} alone (cost 1 + 3). *)
  let s = Strategy.of_buys ~n:5 [ (0, 1); (1, 2); (2, 3); (3, 4) ] in
  let v = view_of s ~k:10 0 in
  let one = List.hd (View.of_host v [ 1 ]) in
  let two = List.hd (View.of_host v [ 2 ]) in
  let restricted = Best_response.compute ~allowed:[ one; two ] ~alpha:1.0 v in
  check_bool "targets within whitelist" true
    (List.for_all (fun t -> t = one || t = two) restricted.Best_response.targets);
  checkf "cost" 4.0 restricted.Best_response.cost;
  Alcotest.check_raises "current outside whitelist"
    (Invalid_argument "Best_response.compute: current strategy outside allowed targets")
    (fun () -> ignore (Best_response.compute ~allowed:[ two ] ~alpha:1.0 v))

let prop_restrictions_never_improve_cost =
  QCheck.Test.make ~name:"restricted best responses never beat unrestricted" ~count:60
    QCheck.(
      quad (int_range 3 12) (int_range 1 3) (int_range 0 10_000) (float_range 0.2 3.0))
    (fun (n, k, seed, alpha) ->
      let rng = Rng.create seed in
      let g = Ncg_gen.Random_tree.generate rng n in
      let s = Strategy.random_orientation rng g in
      let u = seed mod n in
      let v = View.extract s (Strategy.graph s) ~k u in
      let free = Best_response.compute ~alpha v in
      let budget = List.length v.View.owned + 1 in
      let capped = Best_response.compute ~max_edges:budget ~alpha v in
      capped.Best_response.cost >= free.Best_response.cost -. 1e-9
      && List.length capped.Best_response.targets <= budget)

(* --- Local search (better responses) ---------------------------------------- *)

let random_profile seed n =
  let rng = Rng.create seed in
  let g = Ncg_gen.Random_tree.generate rng n in
  Strategy.random_orientation rng g

let test_local_search_drop () =
  (* Triangle with expensive edges: local search finds the drop. *)
  let s = Strategy.of_buys ~n:3 [ (0, 1); (1, 2); (2, 0) ] in
  let v = view_of s ~k:1 0 in
  let o = Best_response.local_search ~alpha:5.0 v in
  checkf "drops" 2.0 o.Best_response.cost

let test_local_search_stays_at_optimum () =
  let s = Strategy.of_buys ~n:6 (Ncg_gen.Classic.star_buys 6) in
  let v = view_of s ~k:2 0 in
  let o = Best_response.local_search ~alpha:2.0 v in
  Alcotest.(check (list int)) "center unchanged" v.View.owned o.Best_response.targets

let prop_local_search_between_current_and_best =
  QCheck.Test.make ~name:"best <= local search <= current (Max)" ~count:80
    QCheck.(
      quad (int_range 2 12) (int_range 1 4) (int_range 0 10_000)
        (float_range 0.1 4.0))
    (fun (n, k, seed, alpha) ->
      let s = random_profile seed n in
      let u = seed mod n in
      let v = View.extract s (Strategy.graph s) ~k u in
      let best = Best_response.compute ~alpha v in
      let local = Best_response.local_search ~alpha v in
      best.Best_response.cost <= local.Best_response.cost +. 1e-9
      && local.Best_response.cost <= Best_response.current_cost ~alpha v +. 1e-9)

(* --- Properties ------------------------------------------------------------ *)

let prop_matches_brute_force =
  QCheck.Test.make ~name:"MDS reduction matches brute force over subsets" ~count:60
    QCheck.(
      quad (int_range 2 7) (int_range 1 3) (int_range 0 10_000)
        (float_range 0.1 4.0))
    (fun (n, k, seed, alpha) ->
      let s = random_profile seed n in
      let u = seed mod n in
      let v = View.extract s (Strategy.graph s) ~k u in
      let o = Best_response.compute ~alpha v in
      abs_float (o.Best_response.cost -. brute_force_cost ~alpha v) < 1e-9)

let prop_cost_consistent =
  QCheck.Test.make ~name:"reported cost matches re-evaluating the strategy" ~count:100
    QCheck.(
      quad (int_range 2 15) (int_range 1 4) (int_range 0 10_000)
        (float_range 0.1 4.0))
    (fun (n, k, seed, alpha) ->
      let s = random_profile seed n in
      let u = seed mod n in
      let v = View.extract s (Strategy.graph s) ~k u in
      let o = Best_response.compute ~alpha v in
      let h' = View.with_strategy v o.Best_response.targets in
      match Ncg_graph.Bfs.eccentricity h' v.View.player with
      | Some ecc ->
          ecc = o.Best_response.usage
          && abs_float
               (o.Best_response.cost
               -. ((alpha *. float_of_int (List.length o.Best_response.targets))
                  +. float_of_int ecc))
             < 1e-9
      | None -> false)

let prop_never_worse_than_current =
  QCheck.Test.make ~name:"best response never exceeds the current cost" ~count:100
    QCheck.(
      quad (int_range 2 15) (int_range 1 4) (int_range 0 10_000)
        (float_range 0.05 5.0))
    (fun (n, k, seed, alpha) ->
      let s = random_profile seed n in
      let u = seed mod n in
      let v = View.extract s (Strategy.graph s) ~k u in
      let o = Best_response.compute ~alpha v in
      o.Best_response.cost <= Best_response.current_cost ~alpha v +. 1e-9)

(* --- Ball views on the host graph ------------------------------------------ *)

(* A connected graph: a random tree plus a few random chords. *)
let random_connected rng n =
  let tree = Ncg_gen.Random_tree.generate rng n in
  let chords =
    List.init (Rng.int rng (n + 1)) (fun _ -> (Rng.int rng n, Rng.int rng n))
    |> List.filter (fun (a, b) -> a <> b)
  in
  Ncg_graph.Graph.add_edges tree chords

(* The borrowed-view best response runs in host ids over the ball of the
   host graph; the reference extracts the renamed view. Same targets (as
   host ids, in the same order), cost and usage, for every player, with
   and without restrictions, under the exact and the budgeted solver,
   each form threading one workspace through all of its calls. *)
let prop_ball_view_equals_extract =
  QCheck.Test.make ~name:"borrowed-view best response = View.extract best response"
    ~count:60
    QCheck.(triple (int_range 2 14) (int_range 0 10_000) (float_range 0.1 3.0))
    (fun (n, seed, alpha) ->
      let rng = Rng.create seed in
      let s = Strategy.random_orientation rng (random_connected rng n) in
      let g = Strategy.graph s in
      let ws_view = Ncg.Workspace.create () in
      let ws_ball = Ncg.Workspace.create ~capacity:n () in
      let agree ~k ~solver ~restrict u =
        let v = View.extract s g ~k u in
        let owned = Strategy.owned s u in
        let allowed =
          if restrict then
            Some
              (List.filter
                 (fun x -> List.mem x owned || Rng.bernoulli rng 0.6)
                 (List.init n Fun.id))
          else None
        in
        let max_edges =
          if restrict then Some (List.length owned + Rng.int rng 3) else None
        in
        let visible =
          Option.map
            (List.filter (fun h -> v.View.mapping.Ncg_graph.Subgraph.to_sub.(h) >= 0))
            allowed
        in
        let reference =
          Best_response.compute ~ws:ws_view ~solver ?max_edges
            ?allowed:(Option.map (View.of_host v) visible) ~alpha v
        in
        let b = Ncg.Ball_view.borrow ~scratch:ws_ball.Ncg.Workspace.bfs s g ~k u in
        let borrowed =
          Best_response.compute_ball ~ws:ws_ball ~solver ?max_edges ?allowed ~alpha b
        in
        View.to_host v reference.Best_response.targets = borrowed.Best_response.targets
        && reference.Best_response.cost = borrowed.Best_response.cost
        && reference.Best_response.usage = borrowed.Best_response.usage
        && Best_response.current_cost ~alpha v = Best_response.ball_cost ~alpha b
      in
      List.for_all
        (fun u ->
          List.for_all
            (fun k ->
              List.for_all
                (fun (solver, restrict) -> agree ~k ~solver ~restrict u)
                [
                  (`Exact, false);
                  (`Exact, true);
                  (`Budgeted 3, false);
                  (`Budgeted 3, true);
                  (`Budgeted 50_000, true);
                ])
            [ 1; 2; 3; n ])
        (List.init n Fun.id))

let () =
  Alcotest.run "best_response"
    [
      ( "cases",
        [
          Alcotest.test_case "current cost" `Quick test_current_cost;
          Alcotest.test_case "path end player" `Quick test_path_end_player;
          Alcotest.test_case "star leaf, small alpha" `Quick test_star_leaf_small_alpha;
          Alcotest.test_case "star center stays" `Quick test_star_center_stays;
          Alcotest.test_case "free dominators" `Quick test_free_dominators_used;
          Alcotest.test_case "edge removal" `Quick test_edge_removal_found;
          Alcotest.test_case "singleton view" `Quick test_singleton_view;
          Alcotest.test_case "local vs full view" `Quick test_local_vs_full_view;
          Alcotest.test_case "greedy sanity" `Quick test_greedy_never_beats_exact;
          Alcotest.test_case "improving threshold" `Quick test_improving_threshold;
        ] );
      ( "restricted",
        [
          Alcotest.test_case "budget cap" `Quick test_budget_cap;
          Alcotest.test_case "budget violation" `Quick test_budget_current_violation;
          Alcotest.test_case "allowed targets" `Quick test_allowed_targets;
          QCheck_alcotest.to_alcotest prop_restrictions_never_improve_cost;
        ] );
      ( "local_search",
        [
          Alcotest.test_case "finds edge drop" `Quick test_local_search_drop;
          Alcotest.test_case "stable at optimum" `Quick test_local_search_stays_at_optimum;
          QCheck_alcotest.to_alcotest prop_local_search_between_current_and_best;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_matches_brute_force;
          QCheck_alcotest.to_alcotest prop_cost_consistent;
          QCheck_alcotest.to_alcotest prop_never_worse_than_current;
          QCheck_alcotest.to_alcotest prop_ball_view_equals_extract;
        ] );
    ]
