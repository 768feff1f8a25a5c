(* Tests for move traces and their replay invariant. *)

module Strategy = Ncg.Strategy
module Trace = Ncg.Trace
module Dynamics = Ncg.Dynamics
module Rng = Ncg_prng.Rng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_empty_replay () =
  let s = Strategy.of_buys ~n:3 [ (0, 1); (1, 2) ] in
  let t = Trace.empty 3 in
  check_bool "identity" true (Strategy.equal s (Trace.replay s t));
  check_int "length" 0 (Trace.length t)

let test_manual_replay () =
  let s = Strategy.of_buys ~n:3 [ (0, 1); (1, 2) ] in
  let t =
    {
      Trace.n = 3;
      moves =
        [
          { Trace.round = 1; player = 0; before = [ 1 ]; after = [ 2 ] };
          { Trace.round = 1; player = 1; before = [ 2 ]; after = [ 0; 2 ] };
        ];
    }
  in
  let final = Trace.replay s t in
  Alcotest.(check (list int)) "player 0" [ 2 ] (Strategy.owned final 0);
  Alcotest.(check (list int)) "player 1" [ 0; 2 ] (Strategy.owned final 1)

let test_replay_rejects_mismatch () =
  let s = Strategy.of_buys ~n:3 [ (0, 1); (1, 2) ] in
  let bad =
    {
      Trace.n = 3;
      moves = [ { Trace.round = 1; player = 0; before = [ 2 ]; after = [] } ];
    }
  in
  Alcotest.check_raises "state mismatch"
    (Invalid_argument "Trace.replay: move does not match the profile state")
    (fun () -> ignore (Trace.replay s bad));
  Alcotest.check_raises "wrong n"
    (Invalid_argument "Trace.replay: player count mismatch") (fun () ->
      ignore (Trace.replay (Strategy.create ~n:5) bad))

let test_serialization_roundtrip () =
  let t =
    {
      Trace.n = 5;
      moves =
        [
          { Trace.round = 1; player = 0; before = []; after = [ 1; 2 ] };
          { Trace.round = 2; player = 4; before = [ 0 ]; after = [] };
        ];
    }
  in
  let t' = Trace.of_string (Trace.to_string t) in
  check_bool "roundtrip" true (t = t')

let test_serialization_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Trace.of_string: empty input")
    (fun () -> ignore (Trace.of_string ""));
  Alcotest.check_raises "bad header" (Invalid_argument "Trace.of_string: bad player count")
    (fun () -> ignore (Trace.of_string "x\n"));
  Alcotest.check_raises "bad move" (Invalid_argument "Trace.of_string: bad move line")
    (fun () -> ignore (Trace.of_string "3\n1 0 | 2\n"))

(* The engine invariant: replaying a dynamics' trace on its initial
   profile reproduces its final profile. *)
let prop_dynamics_trace_replays =
  QCheck.Test.make ~name:"dynamics traces replay to the final profile" ~count:30
    QCheck.(
      quad (int_range 4 16) (int_range 2 4) (int_range 0 10_000)
        (float_range 0.2 4.0))
    (fun (n, k, seed, alpha) ->
      let rng = Rng.create seed in
      let g = Ncg_gen.Random_tree.generate rng n in
      let s = Strategy.random_orientation rng g in
      let r = Dynamics.run (Dynamics.default_config ~alpha ~k) s in
      Strategy.equal r.Dynamics.final (Trace.replay s r.Dynamics.trace)
      && Trace.length r.Dynamics.trace = r.Dynamics.total_moves)

let prop_trace_serialization_roundtrip =
  QCheck.Test.make ~name:"trace serialization roundtrips through dynamics" ~count:20
    QCheck.(triple (int_range 4 12) (int_range 0 10_000) (float_range 0.3 3.0))
    (fun (n, seed, alpha) ->
      let rng = Rng.create seed in
      let g = Ncg_gen.Random_tree.generate rng n in
      let s = Strategy.random_orientation rng g in
      let r = Dynamics.run (Dynamics.default_config ~alpha ~k:3) s in
      let t = r.Dynamics.trace in
      Trace.of_string (Trace.to_string t) = t)

let () =
  Alcotest.run "trace"
    [
      ( "replay",
        [
          Alcotest.test_case "empty" `Quick test_empty_replay;
          Alcotest.test_case "manual" `Quick test_manual_replay;
          Alcotest.test_case "mismatch rejected" `Quick test_replay_rejects_mismatch;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "roundtrip" `Quick test_serialization_roundtrip;
          Alcotest.test_case "errors" `Quick test_serialization_errors;
        ] );
      ( "engine",
        [
          QCheck_alcotest.to_alcotest prop_dynamics_trace_replays;
          QCheck_alcotest.to_alcotest prop_trace_serialization_roundtrip;
        ] );
    ]
