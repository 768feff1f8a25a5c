(* Tests for the round-robin best-response dynamics. *)

module Strategy = Ncg.Strategy
module Dynamics = Ncg.Dynamics
module Lke = Ncg.Lke
module Game = Ncg.Game
module Features = Ncg.Features
module Trace = Ncg.Trace
module Experiment = Ncg.Experiment
module Graph = Ncg_graph.Graph
module Rng = Ncg_prng.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let config ?(variant = Game.Max) ?(max_rounds = 100) ~alpha ~k () =
  { (Dynamics.default_config ~alpha ~k) with Dynamics.variant; max_rounds }

let test_star_already_stable () =
  (* The star at alpha >= 1 is an LKE: dynamics must stop after one
     no-change round. *)
  let s = Strategy.of_buys ~n:6 (Ncg_gen.Classic.star_buys 6) in
  let r = Dynamics.run (config ~alpha:1.5 ~k:2 ()) s in
  (match r.Dynamics.outcome with
  | Dynamics.Converged 1 -> ()
  | _ -> Alcotest.fail "expected immediate convergence");
  check_int "no moves" 0 r.Dynamics.total_moves;
  check_bool "profile unchanged" true (Strategy.equal s r.Dynamics.final)

let test_path_converges_to_lke () =
  let s = Strategy.of_buys ~n:8 (List.init 7 (fun i -> (i, i + 1))) in
  let cfg = config ~alpha:1.0 ~k:2 () in
  let r = Dynamics.run cfg s in
  (match r.Dynamics.outcome with
  | Dynamics.Converged _ -> ()
  | _ -> Alcotest.fail "expected convergence");
  check_bool "final is an LKE" true (Lke.is_lke_max ~alpha:1.0 ~k:2 r.Dynamics.final)

let test_connectivity_preserved () =
  let rng = Rng.create 3 in
  let g = Ncg_gen.Random_tree.generate rng 15 in
  let s = Strategy.random_orientation rng g in
  let r = Dynamics.run (config ~alpha:0.5 ~k:3 ()) s in
  check_bool "final connected" true
    (Ncg_graph.Bfs.is_connected (Strategy.graph r.Dynamics.final))

let test_disconnected_initial_rejected () =
  let s = Strategy.of_buys ~n:4 [ (0, 1) ] in
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Dynamics.run: initial network must be connected") (fun () ->
      ignore (Dynamics.run (config ~alpha:1.0 ~k:2 ()) s))

let test_max_rounds () =
  let s = Strategy.of_buys ~n:6 (Ncg_gen.Classic.star_buys 6) in
  let r = Dynamics.run (config ~alpha:1.0 ~k:2 ~max_rounds:0 ()) s in
  check_bool "max rounds" true (r.Dynamics.outcome = Dynamics.Max_rounds_exceeded);
  check_int "zero rounds" 0 r.Dynamics.rounds

let test_features_collected () =
  let s = Strategy.of_buys ~n:8 (List.init 7 (fun i -> (i, i + 1))) in
  let r = Dynamics.run (config ~alpha:1.0 ~k:2 ()) s in
  check_int "one feature record per round" r.Dynamics.rounds
    (List.length r.Dynamics.features);
  (* Rounds are chronological starting at 1. *)
  List.iteri
    (fun i f -> check_int "chronological" (i + 1) f.Features.round)
    r.Dynamics.features;
  (* The last round has zero changes (that's the convergence witness). *)
  (match List.rev r.Dynamics.features with
  | last :: _ -> check_int "last round quiet" 0 last.Features.changes
  | [] -> Alcotest.fail "expected features");
  (* Total moves = sum of per-round changes. *)
  check_int "moves consistent" r.Dynamics.total_moves
    (List.fold_left (fun acc f -> acc + f.Features.changes) 0 r.Dynamics.features)

let test_features_disabled () =
  let s = Strategy.of_buys ~n:6 (Ncg_gen.Classic.star_buys 6) in
  let cfg = { (config ~alpha:1.0 ~k:2 ()) with Dynamics.collect_features = false } in
  let r = Dynamics.run cfg s in
  check_int "no features" 0 (List.length r.Dynamics.features)

let test_determinism () =
  let make () =
    let rng = Rng.create 99 in
    let g = Ncg_gen.Random_tree.generate rng 12 in
    Strategy.random_orientation rng g
  in
  let r1 = Dynamics.run (config ~alpha:0.7 ~k:3 ()) (make ()) in
  let r2 = Dynamics.run (config ~alpha:0.7 ~k:3 ()) (make ()) in
  check_bool "same final profile" true (Strategy.equal r1.Dynamics.final r2.Dynamics.final);
  check_int "same move count" r1.Dynamics.total_moves r2.Dynamics.total_moves

let test_move_budget () =
  let make () =
    let rng = Rng.create 99 in
    let g = Ncg_gen.Random_tree.generate rng 12 in
    Strategy.random_orientation rng g
  in
  (* A starved budget turns a long best-response search into a reported
     timeout instead of an open-ended run. *)
  (match Dynamics.run { (config ~alpha:0.7 ~k:3 ()) with Dynamics.move_budget = 3 } (make ()) with
  | _ -> Alcotest.fail "tiny move budget should trip"
  | exception Ncg_fault.Cancel.Timed_out what ->
      Alcotest.(check string) "what" "step budget exhausted" what);
  (* A generous budget never fires and changes nothing: same results as
     unlimited. *)
  let r1 = Dynamics.run { (config ~alpha:0.7 ~k:3 ()) with Dynamics.move_budget = 0 } (make ()) in
  let r2 =
    Dynamics.run { (config ~alpha:0.7 ~k:3 ()) with Dynamics.move_budget = 1_000_000 } (make ())
  in
  check_bool "same final profile" true (Strategy.equal r1.Dynamics.final r2.Dynamics.final);
  check_int "same move count" r1.Dynamics.total_moves r2.Dynamics.total_moves

let test_best_response_step () =
  (* Star with cheap edges: a leaf's step changes the profile. *)
  let s = Strategy.of_buys ~n:5 (Ncg_gen.Classic.star_buys 5) in
  let cfg = config ~alpha:0.1 ~k:2 () in
  let g = Strategy.graph s in
  (match Dynamics.best_response_step cfg s g 1 with
  | Some (s', old_cost, new_cost) ->
      check_bool "changed" false (Strategy.equal s s');
      check_bool "player 1 now owns edges" true (Strategy.bought_count s' 1 > 0);
      check_bool "move strictly improves" true (new_cost < old_cost)
  | None -> Alcotest.fail "leaf should move at alpha=0.1");
  (* The center has no improving move. *)
  check_bool "center stays" true (Dynamics.best_response_step cfg s g 0 = None)

let test_sum_dynamics_runs () =
  let s = Strategy.of_buys ~n:8 (List.init 7 (fun i -> (i, i + 1))) in
  let cfg = config ~variant:Game.Sum ~alpha:1.0 ~k:2 () in
  let r = Dynamics.run cfg s in
  (match r.Dynamics.outcome with
  | Dynamics.Converged _ -> ()
  | _ -> Alcotest.fail "sum dynamics should converge here");
  check_bool "final connected" true
    (Ncg_graph.Bfs.is_connected (Strategy.graph r.Dynamics.final))

let test_csv_row () =
  let s = Strategy.of_buys ~n:6 (Ncg_gen.Classic.star_buys 6) in
  let g = Strategy.graph s in
  let f =
    Features.collect Game.Max ~alpha:1.0 ~k:2 ~round:1 ~changes:0 s g
  in
  let row = Features.to_csv_row f in
  check_int "field count"
    (List.length (String.split_on_char ',' Features.csv_header))
    (List.length (String.split_on_char ',' row))

let test_local_moves_dynamics () =
  (* Better-response (single-move) dynamics also converge; the result is
     single-move stable but not necessarily an LKE. *)
  let rng = Rng.create 21 in
  let g = Ncg_gen.Random_tree.generate rng 20 in
  let s = Strategy.random_orientation rng g in
  let cfg = { (config ~alpha:1.0 ~k:3 ()) with Dynamics.response = `Local_moves } in
  let r = Dynamics.run cfg s in
  (match r.Dynamics.outcome with
  | Dynamics.Converged _ | Dynamics.Cycle_detected _ -> ()
  | Dynamics.Max_rounds_exceeded -> Alcotest.fail "local-move dynamics ran away");
  check_bool "connected" true
    (Ncg_graph.Bfs.is_connected (Strategy.graph r.Dynamics.final))

let test_local_moves_never_below_best_quality () =
  (* With exact responses the same start converges too; both engines end
     connected and stable under their own notion of improvement. *)
  let rng = Rng.create 4 in
  let g = Ncg_gen.Random_tree.generate rng 15 in
  let s = Strategy.random_orientation rng g in
  let exact = Dynamics.run (config ~alpha:2.0 ~k:3 ()) s in
  let local =
    Dynamics.run { (config ~alpha:2.0 ~k:3 ()) with Dynamics.response = `Local_moves } s
  in
  check_bool "both converge" true
    (match (exact.Dynamics.outcome, local.Dynamics.outcome) with
    | Dynamics.Converged _, Dynamics.Converged _ -> true
    | _ -> false)

let test_random_sweep_order () =
  let rng = Rng.create 8 in
  let g = Ncg_gen.Random_tree.generate rng 15 in
  let s = Strategy.random_orientation rng g in
  let cfg = { (config ~alpha:1.0 ~k:3 ()) with Dynamics.order = `Random_sweep 5 } in
  let r = Dynamics.run cfg s in
  (match r.Dynamics.outcome with
  | Dynamics.Converged _ -> ()
  | Dynamics.Cycle_detected _ -> Alcotest.fail "cycle detection must be off"
  | Dynamics.Max_rounds_exceeded -> Alcotest.fail "should converge");
  (* Deterministic given the sweep seed. *)
  let r2 = Dynamics.run cfg s in
  check_bool "sweep-seed determinism" true
    (Strategy.equal r.Dynamics.final r2.Dynamics.final);
  (* The converged profile is an LKE regardless of visit order. *)
  check_bool "still an LKE" true (Lke.is_lke_max ~alpha:1.0 ~k:3 r.Dynamics.final)

(* Property: on trees with alpha >= 1 the dynamics converges quickly and the
   result is an LKE. The paper observed convergence in <= ~7 rounds on
   trees; we allow a loose cap. *)
let prop_tree_dynamics_converge =
  QCheck.Test.make ~name:"tree dynamics converge to an LKE" ~count:20
    QCheck.(
      quad (int_range 5 18) (int_range 2 4) (int_range 0 100_000)
        (float_range 1.0 5.0))
    (fun (n, k, seed, alpha) ->
      let rng = Rng.create seed in
      let g = Ncg_gen.Random_tree.generate rng n in
      let s = Strategy.random_orientation rng g in
      let r = Dynamics.run (config ~alpha ~k ~max_rounds:60 ()) s in
      match r.Dynamics.outcome with
      | Dynamics.Converged _ -> Lke.is_lke_max ~alpha ~k r.Dynamics.final
      | Dynamics.Cycle_detected _ -> true (* rare but legitimate *)
      | Dynamics.Max_rounds_exceeded -> false)

(* Lemma 3.13's layer growth as a falsifiable invariant on equilibria. *)
let prop_equilibria_satisfy_ball_growth =
  QCheck.Test.make ~name:"converged equilibria satisfy Lemma 3.13's layer bound"
    ~count:25
    QCheck.(
      quad (int_range 6 20) (int_range 2 4) (int_range 0 100_000)
        (float_range 0.3 4.0))
    (fun (n, k, seed, alpha) ->
      let rng = Rng.create seed in
      let g = Ncg_gen.Random_tree.generate rng n in
      let s = Strategy.random_orientation rng g in
      let r = Dynamics.run (config ~alpha ~k ()) s in
      match r.Dynamics.outcome with
      | Dynamics.Converged _ ->
          Ncg.Bounds.check_ball_growth (Strategy.graph r.Dynamics.final) ~alpha ~k
      | _ -> true)

(* Lemma 3.17 as a falsifiable invariant: every equilibrium the dynamics
   produces has girth >= 2 + min(alpha, 2k). *)
let prop_equilibria_satisfy_girth_invariant =
  QCheck.Test.make ~name:"converged equilibria satisfy Lemma 3.17's girth bound"
    ~count:25
    QCheck.(
      quad (int_range 5 18) (int_range 2 4) (int_range 0 100_000)
        (float_range 0.3 5.0))
    (fun (n, k, seed, alpha) ->
      let rng = Rng.create seed in
      let g = Ncg_gen.Random_tree.generate rng n in
      let s = Strategy.random_orientation rng g in
      let r = Dynamics.run (config ~alpha ~k ()) s in
      match r.Dynamics.outcome with
      | Dynamics.Converged _ ->
          Ncg.Bounds.check_equilibrium_girth
            (Strategy.graph r.Dynamics.final)
            ~alpha ~k
      | _ -> true)

let prop_social_cost_finite_throughout =
  QCheck.Test.make ~name:"network stays connected through the dynamics" ~count:15
    QCheck.(triple (int_range 5 15) (int_range 0 100_000) (float_range 0.2 3.0))
    (fun (n, seed, alpha) ->
      let rng = Rng.create seed in
      let g = Ncg_gen.Random_tree.generate rng n in
      let s = Strategy.random_orientation rng g in
      let r = Dynamics.run (config ~alpha ~k:3 ~max_rounds:60 ()) s in
      List.for_all
        (fun f -> f.Features.diameter >= 0 && not (Float.is_nan f.Features.social_cost))
        r.Dynamics.features)

(* --- Shadow equivalence: the awake-set engine vs a full rescan ----------- *)

(* The loop [Dynamics.run] replaced, as the reference: every player is
   solved in every round and the host graph is rebuilt from the profile
   for every step. *)
let full_rescan (config : Dynamics.config) s0 =
  let n = Strategy.n_players s0 in
  let rng =
    match config.Dynamics.order with
    | `Round_robin -> None
    | `Random_sweep seed -> Some (Rng.create seed)
  in
  let order = Array.init n Fun.id in
  let seen = Hashtbl.create 16 in
  Hashtbl.replace seen (Strategy.to_key s0) ();
  let s = ref s0 and moves = ref [] and features = ref [] in
  let rec loop round =
    if round >= config.Dynamics.max_rounds then (Dynamics.Max_rounds_exceeded, round)
    else begin
      let round = round + 1 in
      Option.iter (fun rng -> Rng.shuffle rng order) rng;
      let changes = ref 0 in
      Array.iter
        (fun u ->
          let g = Strategy.graph !s in
          match Dynamics.best_response_step config !s g u with
          | Some (s', _, _) ->
              let before = Strategy.owned !s u and after = Strategy.owned s' u in
              moves := { Trace.round; player = u; before; after } :: !moves;
              s := s';
              incr changes
          | None -> ())
        order;
      if config.Dynamics.collect_features then
        features :=
          Features.collect config.Dynamics.variant ~alpha:config.Dynamics.alpha
            ~k:config.Dynamics.k ~round ~changes:!changes !s (Strategy.graph !s)
          :: !features;
      let key = Strategy.to_key !s in
      if !changes = 0 then (Dynamics.Converged round, round)
      else if Option.is_none rng && Hashtbl.mem seen key then
        (Dynamics.Cycle_detected round, round)
      else begin
        Hashtbl.replace seen key ();
        loop round
      end
    end
  in
  let outcome, rounds = loop 0 in
  (outcome, rounds, !s, List.rev !moves, List.rev !features)

let print_case (variant, sweep, gnp, n, k, alpha, seed) =
  Printf.sprintf "%s %s %s n=%d k=%d alpha=%g seed=%d"
    (Game.variant_to_string variant)
    (if sweep then "random-sweep" else "round-robin")
    (if gnp then "gnp" else "tree")
    n k alpha seed

let shadow_case =
  QCheck.make ~print:print_case
    QCheck.Gen.(
      oneofl [ Game.Max; Game.Sum ] >>= fun variant ->
      bool >>= fun sweep ->
      bool >>= fun gnp ->
      int_range 4 20 >>= fun n ->
      oneofl [ 1; 2; 3; 1000 ] >>= fun k ->
      oneofl [ 0.1; 0.4; 1.0; 2.5 ] >>= fun alpha ->
      int_bound 100_000 >>= fun seed -> return (variant, sweep, gnp, n, k, alpha, seed))

(* The fence behind the awake set: same outcome, rounds, trace, final
   profile and features as the full rescan. The features of [run] are
   computed on its in-place host graph, the reference's on a rebuild. *)
let shadow_agrees (variant, sweep, gnp, n, k, alpha, seed) =
  let s0 =
    if gnp then Experiment.initial_gnp ~seed ~n ~p:0.3
    else Experiment.initial_tree ~seed ~n
  in
  let cfg =
    {
      (config ~variant ~max_rounds:40 ~alpha ~k ()) with
      Dynamics.order = (if sweep then `Random_sweep seed else `Round_robin);
    }
  in
  let outcome, rounds, final, moves, features = full_rescan cfg s0 in
  let r = Dynamics.run cfg s0 in
  r.Dynamics.outcome = outcome
  && r.Dynamics.rounds = rounds
  && r.Dynamics.trace.Trace.moves = moves
  && Strategy.equal r.Dynamics.final final
  && compare r.Dynamics.features features = 0

let prop_shadow_full_rescan =
  QCheck.Test.make ~name:"awake-set dynamics = full-rescan reference" ~count:500
    shadow_case shadow_agrees

(* The in-place host graph: replaying the accepted moves of a run through
   [Strategy.recentre], the step [Dynamics.run] applies to its adjacency,
   gives [Strategy.graph] of the new profile after every move. *)
let prop_adjacency_tracks_profile =
  QCheck.Test.make ~name:"in-place adjacency = graph after every move" ~count:300
    shadow_case (fun (variant, sweep, gnp, n, k, alpha, seed) ->
      let s0 =
        if gnp then Experiment.initial_gnp ~seed ~n ~p:0.3
        else Experiment.initial_tree ~seed ~n
      in
      let cfg =
        {
          (config ~variant ~max_rounds:40 ~alpha ~k ()) with
          Dynamics.order = (if sweep then `Random_sweep seed else `Round_robin);
        }
      in
      let r = Dynamics.run cfg s0 in
      let adj = Graph.adjacency (Strategy.graph s0) in
      let final =
        List.fold_left
          (fun s (m : Trace.move) ->
            let s' = Strategy.with_owned s m.Trace.player m.Trace.after in
            Strategy.recentre s' adj m.Trace.player;
            if not (Graph.equal (Graph.borrow adj) (Strategy.graph s')) then
              QCheck.Test.fail_reportf
                "adjacency differs after player %d's move in round %d" m.Trace.player
                m.Trace.round;
            s')
          s0 r.Dynamics.trace.Trace.moves
      in
      Strategy.equal final r.Dynamics.final)

(* Counterexamples the property found against a wake radius of k - 1,
   against a mover who stays asleep and against a dynamics that wakes
   only on the graph after a move, kept so those mutations fail on every
   run. *)
let test_shadow_pinned () =
  List.iter
    (fun case -> check_bool (print_case case) true (shadow_agrees case))
    [
      (Game.Max, false, true, 14, 2, 0.4, 68544);
      (Game.Max, true, false, 18, 2, 0.4, 58567);
      (Game.Max, false, true, 14, 2, 0.7, 8);
    ]

let () =
  Alcotest.run "dynamics"
    [
      ( "outcomes",
        [
          Alcotest.test_case "stable start" `Quick test_star_already_stable;
          Alcotest.test_case "path converges to LKE" `Quick test_path_converges_to_lke;
          Alcotest.test_case "connectivity preserved" `Quick test_connectivity_preserved;
          Alcotest.test_case "disconnected rejected" `Quick test_disconnected_initial_rejected;
          Alcotest.test_case "max rounds" `Quick test_max_rounds;
        ] );
      ( "features",
        [
          Alcotest.test_case "collected per round" `Quick test_features_collected;
          Alcotest.test_case "disabled" `Quick test_features_disabled;
          Alcotest.test_case "csv row" `Quick test_csv_row;
        ] );
      ( "mechanics",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "move budget" `Quick test_move_budget;
          Alcotest.test_case "single step" `Quick test_best_response_step;
          Alcotest.test_case "sum variant" `Quick test_sum_dynamics_runs;
        ] );
      ( "modes",
        [
          Alcotest.test_case "local-move response" `Quick test_local_moves_dynamics;
          Alcotest.test_case "exact vs local both converge" `Quick
            test_local_moves_never_below_best_quality;
          Alcotest.test_case "random sweep order" `Quick test_random_sweep_order;
          Alcotest.test_case "shadow: pinned cases" `Quick test_shadow_pinned;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_tree_dynamics_converge;
          QCheck_alcotest.to_alcotest prop_equilibria_satisfy_girth_invariant;
          QCheck_alcotest.to_alcotest prop_equilibria_satisfy_ball_growth;
          QCheck_alcotest.to_alcotest prop_social_cost_finite_throughout;
          QCheck_alcotest.to_alcotest prop_shadow_full_rescan;
          QCheck_alcotest.to_alcotest prop_adjacency_tracks_profile;
        ] );
    ]
