(* Tests for the experiment harness. *)

module Experiment = Ncg.Experiment
module Sweep_spec = Ncg.Sweep_spec
module Strategy = Ncg.Strategy
module Dynamics = Ncg.Dynamics
module Game = Ncg.Game
module Graph = Ncg_graph.Graph

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_paper_grids () =
  check_int "15 alphas" 15 (List.length Experiment.paper_alphas);
  check_int "12 ks" 12 (List.length Experiment.paper_ks);
  check_bool "k=1000 included" true (List.mem 1000 Experiment.paper_ks);
  check_bool "alpha=0.025 included" true (List.mem 0.025 Experiment.paper_alphas)

let test_initial_tree () =
  let s = Experiment.initial_tree ~seed:5 ~n:30 in
  check_int "players" 30 (Strategy.n_players s);
  check_int "purchases = n-1" 29 (Strategy.total_bought s);
  check_bool "connected" true (Ncg_graph.Bfs.is_connected (Strategy.graph s));
  (* Deterministic per seed. *)
  let s' = Experiment.initial_tree ~seed:5 ~n:30 in
  check_bool "deterministic" true (Strategy.equal s s');
  let s2 = Experiment.initial_tree ~seed:6 ~n:30 in
  check_bool "seed matters" false (Strategy.equal s s2)

let test_initial_gnp () =
  let s = Experiment.initial_gnp ~seed:7 ~n:40 ~p:0.15 in
  check_int "players" 40 (Strategy.n_players s);
  check_bool "connected" true (Ncg_graph.Bfs.is_connected (Strategy.graph s));
  check_int "purchases = edges" (Graph.size (Strategy.graph s)) (Strategy.total_bought s)

let test_initial_stats () =
  let s = Experiment.initial_tree ~seed:11 ~n:25 in
  let st = Experiment.initial_stats s in
  let g = Strategy.graph s in
  check_int "edges" (Graph.size g) st.Experiment.edges;
  check_int "diameter"
    (match Ncg_graph.Metrics.diameter g with Some d -> d | None -> -1)
    st.Experiment.diameter;
  check_int "max degree" (Ncg_graph.Metrics.max_degree g) st.Experiment.max_degree;
  check_bool "max bought >= 1" true (st.Experiment.max_bought >= 1)

let test_run_one () =
  let s = Experiment.initial_tree ~seed:3 ~n:15 in
  let cfg = Dynamics.default_config ~alpha:2.0 ~k:3 in
  let r = Experiment.run_one cfg s in
  check_bool "converged" true r.Experiment.converged;
  check_bool "not cycled" true (not r.Experiment.cycled);
  check_bool "quality >= 1 for alpha >= 1" true (r.Experiment.quality >= 1.0 -. 1e-9);
  check_bool "unfairness >= 1" true (r.Experiment.unfairness >= 1.0 -. 1e-9);
  check_bool "diameter positive" true (r.Experiment.diameter >= 1);
  check_bool "view sizes sane" true
    (r.Experiment.min_view >= 1 && r.Experiment.avg_view >= float_of_int r.Experiment.min_view);
  check_bool "social cost positive" true (r.Experiment.social_cost > 0.0)

(* The runs of one cell: trial j starts from the j-th seed derived from
   [cell_seed]. *)
let cell_runs ~alpha ~k ~n ~trials ~cell_seed =
  (Experiment.run_cell
     ~make_initial:(fun ~seed -> Experiment.initial_tree ~seed ~n)
     ~make_config:(fun _ -> Dynamics.default_config ~alpha ~k)
     ~trials ~cell_seed { Experiment.alpha; k })
    .Experiment.runs

let test_trials_and_summaries () =
  let runs = cell_runs ~alpha:2.0 ~k:3 ~n:12 ~trials:5 ~cell_seed:100 in
  check_int "five runs" 5 (List.length runs);
  let q = Experiment.summarize (fun r -> r.Experiment.quality) runs in
  check_int "summary n" 5 q.Ncg_stats.Summary.n;
  check_bool "mean quality >= 1" true (q.Ncg_stats.Summary.mean >= 1.0 -. 1e-9);
  let frac = Experiment.fraction (fun r -> r.Experiment.converged) runs in
  check_bool "most converge" true (frac >= 0.8)

let test_trials_deterministic () =
  let run () = cell_runs ~alpha:1.0 ~k:2 ~n:10 ~trials:3 ~cell_seed:42 in
  let a = List.map (fun r -> r.Experiment.social_cost) (run ()) in
  let b = List.map (fun r -> r.Experiment.social_cost) (run ()) in
  Alcotest.(check (list (float 1e-12))) "reproducible" a b

let test_derive_seeds () =
  let a = Experiment.derive_seeds ~seed:42 ~count:8 in
  let b = Experiment.derive_seeds ~seed:42 ~count:8 in
  check_bool "deterministic" true (a = b);
  (* A prefix of a longer stream: trial seeds don't depend on the count. *)
  let longer = Experiment.derive_seeds ~seed:42 ~count:16 in
  check_bool "prefix stable" true (Array.sub longer 0 8 = a);
  let other = Experiment.derive_seeds ~seed:43 ~count:8 in
  check_bool "seed matters" false (a = other);
  let distinct = List.sort_uniq compare (Array.to_list a) in
  check_int "all distinct" 8 (List.length distinct)

let test_derive_seeds_golden () =
  (* Frozen snapshot of the SplitMix64 stream. These values are load-
     bearing: every published sweep and every store cache key assumes
     the per-trial seed derivation never changes. If this test fails,
     the change breaks all existing result stores. *)
  let golden_2014 =
    [|
      -4192831650131979260;
      195712523871778755;
      2363781521631100635;
      1407460852654598280;
      1403179157520910089;
      4283057755417690474;
      1039990551353643555;
      890011278414683468;
    |]
  in
  check_bool "seed 2014 stream frozen" true
    (Experiment.derive_seeds ~seed:2014 ~count:8 = golden_2014);
  let golden_0 =
    [|
      -2152535657050944081;
      -1263085514660420108;
      487617019471545679;
      -537132696929009172;
    |]
  in
  check_bool "seed 0 stream frozen" true
    (Experiment.derive_seeds ~seed:0 ~count:4 = golden_0)

(* Sweep_spec.trial_seed names trial j's start: entry j of the cell's
   derived seeds, whatever the trial count. *)
let test_trial_seed () =
  let spec = Sweep_spec.default in
  List.iter
    (fun (cell : Experiment.cell) ->
      List.iter
        (fun trials ->
          Array.iteri
            (fun j seed ->
              check_int
                (Printf.sprintf "cell (%g,%d), %d trials, trial %d" cell.Experiment.alpha
                   cell.Experiment.k trials j)
                seed
                (Sweep_spec.trial_seed spec cell ~trial:j))
            (Experiment.derive_seeds
               ~seed:(Sweep_spec.cell_seed spec cell)
               ~count:trials))
        [ 1; 2; 5; 20 ])
    (Sweep_spec.cells spec);
  Alcotest.check_raises "negative trial"
    (Invalid_argument "Sweep_spec.trial_seed: negative trial") (fun () ->
      ignore (Sweep_spec.trial_seed spec { Experiment.alpha = 1.; k = 2 } ~trial:(-1)))

(* One trajectory from trial j's seed under the cell's config, with
   features on, is run j of the cell. *)
let test_trial_is_run () =
  let spec = { Sweep_spec.default with n = 12; trials = 3 } in
  let cell = { Experiment.alpha = 1.0; k = 2 } in
  let config =
    { (Sweep_spec.make_config spec cell) with Dynamics.collect_features = true }
  in
  List.iteri
    (fun trial run ->
      let start =
        Sweep_spec.make_initial spec ~seed:(Sweep_spec.trial_seed spec cell ~trial)
      in
      check_bool
        (Printf.sprintf "trial %d" trial)
        true
        (Experiment.run_one config start = run))
    (Sweep_spec.run_cell spec cell).Experiment.runs

(* Every result of a spec's sweep, in cell order; a quarantine fails the
   test. *)
let ok_results outcomes =
  List.map
    (function
      | Ok (r : Experiment.cell_result) -> r
      | Error (f : Experiment.cell_failure) ->
          Alcotest.failf "cell %d quarantined" f.Experiment.index)
    outcomes

let sweep_fixture ?(probes = true) ~domains () =
  ok_results
    (Sweep_spec.sweep ~domains
       {
         Sweep_spec.default with
         n = 12;
         trials = 3;
         alphas = [ 0.5; 2.0 ];
         ks = [ 2; 3; 1000 ];
         probes;
       })

let test_sweep_shape () =
  let results = sweep_fixture ~domains:1 () in
  check_int "six cells" 6 (List.length results);
  let first = List.hd results in
  check_bool "cell order row-major" true
    (first.Experiment.cell = { Experiment.alpha = 0.5; k = 2 });
  check_int "three runs per cell" 3 (List.length first.Experiment.runs);
  (* Telemetry present: the cell counted its solver work and spans one
     child per trial. *)
  check_bool "bfs counted" true
    (List.assoc "bfs.calls" first.Experiment.counters > 0);
  check_bool "best responses counted" true
    (List.assoc "best_response.calls" first.Experiment.counters > 0);
  check_int "trial spans" 3
    (List.length first.Experiment.spans.Ncg_obs.Span.children);
  check_bool "wall time positive" true (first.Experiment.wall_ns > 0L);
  (* New telemetry: histograms sampled the oracles, the GC delta counted
     the cell's allocations, and the cell knows where and when it ran. *)
  let hist name =
    List.assoc (Ncg_obs.Histogram.name name) first.Experiment.histograms
  in
  check_bool "best response latencies sampled" true
    (Ncg_obs.Histogram.count (hist Ncg_obs.Histogram.best_response) > 0);
  check_int "one sweep-cell sample" 1
    (Ncg_obs.Histogram.count (hist Ncg_obs.Histogram.sweep_cell));
  check_bool "cell allocated words" true
    (Ncg_obs.Gc_stats.allocated_words first.Experiment.gc > 0.0);
  check_bool "domain recorded" true (first.Experiment.domain >= 0);
  check_bool "start before end" true
    (first.Experiment.started_ns > 0L
    && first.Experiment.wall_ns >= first.Experiment.spans.Ncg_obs.Span.elapsed_ns)

let test_sweep_deterministic_across_domains () =
  (* The tentpole contract: same seed => byte-identical run statistics,
     per-cell counters, histogram sample counts and GC allocated words,
     whatever the fan-out. (Histogram bucket placement and GC collection
     counts are timing-dependent and deliberately excluded.) *)
  let reference = sweep_fixture ~domains:1 () in
  List.iter
    (fun domains ->
      let results = sweep_fixture ~domains () in
      List.iter2
        (fun (a : Experiment.cell_result) (b : Experiment.cell_result) ->
          let cell_check what ok =
            check_bool
              (Printf.sprintf "cell (%g,%d) %s identical at %d domains"
                 a.Experiment.cell.Experiment.alpha
                 a.Experiment.cell.Experiment.k what domains)
              true ok
          in
          cell_check "runs" (a.Experiment.runs = b.Experiment.runs);
          cell_check "counters" (a.Experiment.counters = b.Experiment.counters);
          cell_check "histogram sample counts"
            (Ncg_obs.Histogram.counts_only a.Experiment.histograms
            = Ncg_obs.Histogram.counts_only b.Experiment.histograms);
          cell_check "gc allocated words"
            (Ncg_obs.Gc_stats.allocated_words a.Experiment.gc
            = Ncg_obs.Gc_stats.allocated_words b.Experiment.gc);
          cell_check "probe series"
            (Ncg_obs.Probe.equal_snapshot a.Experiment.probes b.Experiment.probes))
        reference results)
    [ 2; 4 ]

let test_probes_toggle_and_series () =
  (* Disabling probes must not change the run statistics — the CSV and
     every downstream summary is a pure function of [runs]. *)
  let on = sweep_fixture ~domains:2 () in
  let off = sweep_fixture ~probes:false ~domains:2 () in
  List.iter2
    (fun (a : Experiment.cell_result) (b : Experiment.cell_result) ->
      check_bool "runs identical with probes off" true
        (a.Experiment.runs = b.Experiment.runs);
      check_bool "probes-off snapshot is the empty shape" true
        (Ncg_obs.Probe.equal_snapshot b.Experiment.probes
           (Ncg_obs.Probe.empty_snapshot ())))
    on off;
  (* With probes on, the exemplar trial recorded per-round series. *)
  let first = List.hd on in
  let series probe =
    List.assoc (Ncg_obs.Probe.name probe) first.Experiment.probes
  in
  check_bool "social-cost series sampled" false
    (Ncg_obs.Timeseries.is_empty (series Ncg_obs.Probe.social_cost));
  check_bool "awake-players series sampled" false
    (Ncg_obs.Timeseries.is_empty (series Ncg_obs.Probe.awake_players));
  (* Probing shifts counters (the per-round social-cost BFS), which is
     exactly why the flag participates in the cell cache key. *)
  let key probes =
    Experiment.cell_cache_key ~probes ~context:[] ~seed:1 ~trials:2 ~cell_seed:7
      { Experiment.alpha = 0.5; k = 2 }
  in
  check_bool "cache key depends on the probes flag" false (key true = key false);
  (* Cell payload codec (ncg.store.cell/6) round-trips the series. *)
  match Experiment.cell_result_of_json (Experiment.cell_result_to_json first) with
  | Ok rt ->
      check_bool "payload round-trips probe series" true
        (Ncg_obs.Probe.equal_snapshot rt.Experiment.probes first.Experiment.probes)
  | Error e -> Alcotest.failf "cell payload did not round-trip: %s" e

let test_awake_probe_counts_solved_players () =
  (* The awake-players probe counts the best responses computed in a
     round: all n in round 1, never fewer than the round's movers, and
     below n once moves only wake the players near them. *)
  let n = 40 in
  List.iter
    (fun k ->
      let s = Experiment.initial_tree ~seed:2014 ~n in
      let r, probes =
        Ncg_obs.Probe.collect (fun () ->
            Dynamics.run (Dynamics.default_config ~alpha:0.5 ~k) s)
      in
      let awake =
        Ncg_obs.Timeseries.to_list
          (List.assoc (Ncg_obs.Probe.name Ncg_obs.Probe.awake_players) probes)
      in
      check_int (Printf.sprintf "k=%d: one sample per round" k) r.Dynamics.rounds
        (List.length awake);
      List.iter2
        (fun (x, y) (f : Ncg.Features.t) ->
          check_bool
            (Printf.sprintf "k=%d round %d: %g awake >= %d movers, <= n" k
               f.Ncg.Features.round y f.Ncg.Features.changes)
            true
            (int_of_float x = f.Ncg.Features.round
            && y >= float_of_int f.Ncg.Features.changes
            && y <= float_of_int n))
        awake r.Dynamics.features;
      (match awake with
      | (_, first) :: _ ->
          check_bool (Printf.sprintf "k=%d: round 1 solves everyone" k) true
            (first = float_of_int n)
      | [] -> ());
      if k = 2 then
        check_bool "k=2: some round solves fewer than n players" true
          (List.exists (fun (_, y) -> y < float_of_int n) awake))
    [ 2; 3; 1000 ]

let test_sweep_counters_isolated_per_cell () =
  (* Counts recorded inside a sweep must not leak into an enclosing
     collector beyond the totals, and totals equal the cell sum. *)
  let results, outer =
    Ncg_obs.Metrics.collect (fun () -> sweep_fixture ~domains:2 ())
  in
  let totals = Experiment.sweep_counters results in
  (* Spawned-domain cells count into their own collectors only; the
     caller's collector sees just the chunk it ran itself, so it can be
     at most the totals. *)
  check_bool "outer <= totals" true
    (List.for_all
       (fun (name, v) ->
         match List.assoc_opt name totals with
         | Some t -> v <= t
         | None -> v = 0)
       outer);
  check_bool "totals positive" true (List.assoc "bfs.calls" totals > 0)

(* Every cell of a spec's sweep, as (cell, result). *)
let spec_results spec =
  List.map
    (fun (r : Experiment.cell_result) -> (r.Experiment.cell, r))
    (ok_results (Sweep_spec.sweep spec))

let test_overlapping_grids_agree () =
  (* A cell's row is a function of (seed, alpha, k): two sweeps over
     overlapping grids, listed in different orders, print byte-identical
     rows for every shared cell — and so does a lone Sweep_spec.run_cell,
     with the same counters and histogram sample counts as the supervised
     sweep's cell. *)
  let small = { Sweep_spec.default with n = 12; trials = 2 } in
  let a = { small with alphas = [ 0.5; 1.0 ]; ks = [ 2; 1000 ] } in
  let b = { small with alphas = [ 2.0; 1.0 ]; ks = [ 3; 1000; 2 ] } in
  let results_b = spec_results b in
  let shared =
    List.filter_map
      (fun (cell, r) ->
        Option.map (fun r' -> (cell, r, r')) (List.assoc_opt cell results_b))
      (spec_results a)
  in
  check_int "two shared cells" 2 (List.length shared);
  List.iter
    (fun ((cell : Experiment.cell), r, r') ->
      let label what =
        Printf.sprintf "cell (%g,%d) %s" cell.Experiment.alpha cell.Experiment.k
          what
      in
      let row = Sweep_spec.csv_row a r in
      let lone = Sweep_spec.run_cell a cell in
      Alcotest.(check string)
        (label "same row in both grids")
        row (Sweep_spec.csv_row b r');
      Alcotest.(check string)
        (label "same row from run_cell")
        row (Sweep_spec.csv_row a lone);
      check_bool (label "same counters from run_cell") true
        (lone.Experiment.counters = r.Experiment.counters);
      check_bool
        (label "same histogram counts from run_cell")
        true
        (Ncg_obs.Histogram.counts_only lone.Experiment.histograms
        = Ncg_obs.Histogram.counts_only r.Experiment.histograms))
    shared

let test_cache_key_golden () =
  (* Frozen key bytes of the default spec's first cell. Records already
     in a store are found only while these bytes stay exactly put. *)
  Alcotest.(check string)
    "default spec, cell (0.5, 2)"
    "{\"store_schema\":1,\"class\":\"tree\",\"n\":50,\"p\":0.1,\"variant\":\"max\",\"solver\":\"budgeted:50000\",\"response\":\"best\",\"sum_mode\":\"local_search\",\"order\":\"round_robin\",\"max_rounds\":200,\"epsilon\":1e-09,\"move_budget\":1000000,\"payload_schema\":\"ncg.store.cell/6\",\"probes\":true,\"seed\":2014,\"alpha\":0.5,\"k\":2,\"trials\":5,\"cell_seed\":-1661576433619697885}"
    (Ncg_store.Cache_key.to_string
       (Sweep_spec.cache_key Sweep_spec.default { Experiment.alpha = 0.5; k = 2 }))

let test_initial_ba_ws () =
  let ba = Experiment.initial_ba ~seed:4 ~n:30 ~m:2 in
  check_bool "ba connected" true (Ncg_graph.Bfs.is_connected (Strategy.graph ba));
  check_int "ba players" 30 (Strategy.n_players ba);
  let ws = Experiment.initial_ws ~seed:4 ~n:30 ~k:4 ~beta:0.2 in
  check_bool "ws connected" true (Ncg_graph.Bfs.is_connected (Strategy.graph ws));
  check_int "ws purchases = edges" (Graph.size (Strategy.graph ws))
    (Strategy.total_bought ws)

let test_full_knowledge_view_sizes () =
  (* With k = 1000 every converged player sees everything. *)
  let s = Experiment.initial_tree ~seed:8 ~n:12 in
  let cfg = Dynamics.default_config ~alpha:2.0 ~k:1000 in
  let r = Experiment.run_one cfg s in
  check_int "min view = n" 12 r.Experiment.min_view

(* A node budget that bites shows up in the cell record's counters. *)
let test_budget_exhausted_in_cell_json () =
  let counter solver =
    let r =
      Experiment.run_cell
        ~make_initial:(fun ~seed -> Experiment.initial_gnp ~seed ~n:16 ~p:0.3)
        ~make_config:(fun _ ->
          { (Dynamics.default_config ~alpha:0.5 ~k:1000) with Dynamics.solver })
        ~trials:1 ~cell_seed:7 { Experiment.alpha = 0.5; k = 1000 }
    in
    let module Json = Ncg_obs.Json in
    match Experiment.cell_json ~graph_class:"gnp" ~n:16 ~p:0.3 ~trials:1 r with
    | Json.Obj fields -> (
        match List.assoc "counters" fields with
        | Json.Obj counters -> (
            match List.assoc_opt "set_cover.budget_exhausted" counters with
            | Some (Json.Int v) -> v
            | _ -> 0)
        | _ -> Alcotest.fail "counters is not an object")
    | _ -> Alcotest.fail "cell record is not an object"
  in
  check_bool "tiny budget bites" true (counter (`Budgeted 1) > 0);
  check_int "exact never does" 0 (counter `Exact)

let () =
  Alcotest.run "experiment"
    [
      ( "setup",
        [
          Alcotest.test_case "paper grids" `Quick test_paper_grids;
          Alcotest.test_case "initial tree" `Quick test_initial_tree;
          Alcotest.test_case "initial gnp" `Quick test_initial_gnp;
          Alcotest.test_case "initial stats" `Quick test_initial_stats;
        ] );
      ( "runs",
        [
          Alcotest.test_case "run_one" `Quick test_run_one;
          Alcotest.test_case "trials + summaries" `Quick test_trials_and_summaries;
          Alcotest.test_case "determinism" `Quick test_trials_deterministic;
          Alcotest.test_case "ba/ws initials" `Quick test_initial_ba_ws;
          Alcotest.test_case "full knowledge views" `Quick test_full_knowledge_view_sizes;
          Alcotest.test_case "budget exhausted reaches the cell record" `Quick
            test_budget_exhausted_in_cell_json;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "seed derivation" `Quick test_derive_seeds;
          Alcotest.test_case "seed derivation golden snapshot" `Quick
            test_derive_seeds_golden;
          Alcotest.test_case "shape + telemetry" `Quick test_sweep_shape;
          Alcotest.test_case "deterministic across domains" `Quick
            test_sweep_deterministic_across_domains;
          Alcotest.test_case "per-cell counter isolation" `Quick
            test_sweep_counters_isolated_per_cell;
          Alcotest.test_case "probes toggle + exemplar series" `Quick
            test_probes_toggle_and_series;
          Alcotest.test_case "awake probe counts solved players" `Quick
            test_awake_probe_counts_solved_players;
          Alcotest.test_case "overlapping grids agree on shared cells" `Quick
            test_overlapping_grids_agree;
          Alcotest.test_case "cache key golden bytes" `Quick
            test_cache_key_golden;
          Alcotest.test_case "trial seed = derived seed j" `Quick test_trial_seed;
          Alcotest.test_case "trial j = run j of the cell" `Quick test_trial_is_run;
        ] );
    ]
