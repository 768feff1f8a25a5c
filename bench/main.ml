(* Benchmark & reproduction harness.

   One section per table and figure of the paper's evaluation (Section 5),
   plus certifications of the theoretical constructions (Sections 3-4) and
   a few ablations beyond the paper. Sections print to stdout and write no
   file; the paper-scale sweep documents the bench gate reads come from
   `ncg_experiment --telemetry` (docs/PERFORMANCE.md).

   Run everything:        dune exec bench/main.exe
   Run a few sections:    dune exec bench/main.exe -- table1 fig7 modes
   List sections:         dune exec bench/main.exe -- list

   Scale note: the paper runs 20 seeds per cell over a 15x12 (alpha, k)
   grid with n up to 200 (~36 000 dynamics, Gurobi as the best-response
   oracle). The same code paths run here on a scaled-down grid so the
   whole suite finishes in minutes on a laptop; EXPERIMENTS.md records the
   grids used and compares shapes against the paper. *)

module Experiment = Ncg.Experiment
module Sweep_spec = Ncg.Sweep_spec
module Dynamics = Ncg.Dynamics
module Strategy = Ncg.Strategy
module Game = Ncg.Game
module Lke = Ncg.Lke
module Bounds = Ncg.Bounds
module Summary = Ncg_stats.Summary
module Graph = Ncg_graph.Graph
module Metrics = Ncg_graph.Metrics
module Torus_grid = Ncg_gen.Torus_grid

let base_seed = 2014

(* Every section runs the dynamics with ncg_experiment's settings. *)
let spec = { Sweep_spec.default with seed = base_seed }

(* The results of every cell of [spec], in grid order; a quarantined
   cell aborts the section. *)
let sweep spec =
  List.map
    (function
      | Ok r -> r | Error (f : Experiment.cell_failure) -> raise f.Experiment.exn)
    (Sweep_spec.sweep spec)

(* One figure panel: a class/n/p grid swept as one spec, looked up by
   cell. Each cell's runs are those behind the row
   [ncg_experiment --class C -n N -p P --trials T --seed 2014] prints
   for it. *)
let panel ?(graph_class = "tree") ?(p = spec.p) ~n ~trials ~alphas ~ks () =
  let results = sweep { spec with graph_class; n; p; trials; alphas; ks } in
  fun ~alpha ~k ->
    (List.find
       (fun (r : Experiment.cell_result) ->
         r.Experiment.cell = { Experiment.alpha; k })
       results)
      .Experiment.runs

(* A cell whose dynamics config a spec cannot express: the spec's start
   profiles, trials and cell seed, with [tweak] applied to its config. *)
let tweaked_runs spec ~tweak (cell : Experiment.cell) =
  (Experiment.run_cell ~make_initial:(Sweep_spec.make_initial spec)
     ~make_config:(fun c -> tweak (Sweep_spec.make_config spec c))
     ~trials:spec.Sweep_spec.trials
     ~cell_seed:(Sweep_spec.cell_seed spec cell) cell)
    .Experiment.runs

let summary_str f runs = Summary.to_string (Experiment.summarize f runs)
let summary_mean f runs = (Experiment.summarize f runs).Summary.mean
let fi = float_of_int

let section_header id title = Printf.printf "\n=== %s: %s ===\n%!" id title

let chart ?logx series =
  print_string
    (Ncg_stats.Ascii_chart.render ?logx ~width:56 ~height:14
       (List.map
          (fun (label, points) -> { Ncg_stats.Ascii_chart.label; points })
          series))

(* --- Table I ---------------------------------------------------------------- *)

let table1 () =
  section_header "table1" "random tree statistics (paper Table I)";
  let trials = 20 in
  Printf.printf "%6s %18s %18s %22s\n" "n" "Diameter" "Max. degree" "Max. bought edges";
  List.iter
    (fun n ->
      let stats =
        List.init trials (fun i ->
            Experiment.initial_stats
              (Experiment.initial_tree ~seed:(base_seed + (7919 * (i + 1))) ~n))
      in
      let s f = Summary.to_string (Summary.of_floats (Array.of_list (List.map f stats))) in
      Printf.printf "%6d %18s %18s %22s\n" n
        (s (fun x -> fi x.Experiment.diameter))
        (s (fun x -> fi x.Experiment.max_degree))
        (s (fun x -> fi x.Experiment.max_bought)))
    [ 20; 30; 50; 70; 100; 200 ]

(* --- Table II --------------------------------------------------------------- *)

let table2 () =
  section_header "table2" "Erdos-Renyi statistics (paper Table II)";
  let trials = 20 in
  Printf.printf "%5s %7s %18s %14s %15s %18s\n" "n" "p" "Edges" "Diameter" "Max. degree"
    "Max. bought";
  List.iter
    (fun (n, p) ->
      let stats =
        List.init trials (fun i ->
            Experiment.initial_stats
              (Experiment.initial_gnp ~seed:(base_seed + (7919 * (i + 1))) ~n ~p))
      in
      let s f = Summary.to_string (Summary.of_floats (Array.of_list (List.map f stats))) in
      Printf.printf "%5d %7.3f %18s %14s %15s %18s\n" n p
        (s (fun x -> fi x.Experiment.edges))
        (s (fun x -> fi x.Experiment.diameter))
        (s (fun x -> fi x.Experiment.max_degree))
        (s (fun x -> fi x.Experiment.max_bought)))
    [ (100, 0.06); (100, 0.1); (100, 0.2); (200, 0.035); (200, 0.05); (200, 0.1) ]

(* --- Figures 3 and 4: the theory tables -------------------------------------- *)

let fig3 () =
  section_header "fig3" "MaxNCG PoA bound regions (paper Figure 3)";
  print_string
    (Bounds.max_table ~n:100_000
       ~alphas:[ 0.5; 1.0; 2.0; 5.0; 17.0; 100.0; 10_000.0 ]
       ~ks:[ 1; 2; 3; 5; 8; 16; 64; 1000 ])

let fig4 () =
  section_header "fig4" "SumNCG PoA bound regions (paper Figure 4)";
  print_string
    (Bounds.sum_table ~n:100_000
       ~alphas:[ 0.5; 2.0; 40.0; 500.0; 250_000.0; 10_000_000.0 ]
       ~ks:[ 1; 2; 3; 5; 10; 50 ])

(* --- Figure 5: view sizes at equilibrium -------------------------------------- *)

let fig5 () =
  section_header "fig5"
    "min/avg view size at equilibrium vs alpha and k (paper Figure 5; trees n=60)";
  let n = 60 and trials = 5 in
  let ks = [ 2; 3; 4; 5; 7; 1000 ] in
  let alphas = [ 0.1; 0.5; 1.0; 2.0; 5.0; 10.0 ] in
  let cell = panel ~n ~trials ~alphas ~ks () in
  Printf.printf "%8s %6s %18s %18s\n" "alpha" "k" "avg view size" "min view size";
  let series = List.map (fun k -> (Printf.sprintf "k=%d" k, ref [])) ks in
  List.iter
    (fun alpha ->
      List.iter2
        (fun k (_, points) ->
          let runs = cell ~alpha ~k in
          let avg = summary_mean (fun r -> r.Experiment.avg_view) runs in
          points := (alpha, avg) :: !points;
          Printf.printf "%8g %6d %18s %18s\n%!" alpha k
            (summary_str (fun r -> r.Experiment.avg_view) runs)
            (summary_str (fun r -> fi r.Experiment.min_view) runs))
        ks series)
    alphas;
  Printf.printf "average view size vs alpha:\n";
  chart (List.map (fun (label, points) -> (label, List.rev !points)) series)

(* --- Figure 6: quality vs n ----------------------------------------------------- *)

let fig6 () =
  section_header "fig6"
    "quality of equilibrium vs n for alpha in {1, 10} (paper Figure 6; trees)";
  let trials = 5 in
  let ks = [ 2; 3; 4; 5; 1000 ] in
  let alphas = [ 1.0; 10.0 ] in
  let panels =
    List.map (fun n -> (n, panel ~n ~trials ~alphas ~ks ())) [ 20; 30; 50; 70; 100 ]
  in
  List.iter
    (fun alpha ->
      Printf.printf "alpha = %g\n" alpha;
      Printf.printf "%6s" "n";
      List.iter (fun k -> Printf.printf "%16s" (Printf.sprintf "k=%d" k)) ks;
      print_newline ();
      let series = List.map (fun k -> (Printf.sprintf "k=%d" k, ref [])) ks in
      List.iter
        (fun (n, cell) ->
          Printf.printf "%6d" n;
          List.iter2
            (fun k (_, points) ->
              let runs = cell ~alpha ~k in
              let mean = summary_mean (fun r -> r.Experiment.quality) runs in
              points := (fi n, mean) :: !points;
              Printf.printf "%16s" (summary_str (fun r -> r.Experiment.quality) runs))
            ks series;
          print_newline ();
          flush stdout)
        panels;
      chart (List.map (fun (label, points) -> (label, List.rev !points)) series))
    alphas

(* --- Figure 7: quality vs k with the theoretical trend ---------------------------- *)

let fig7 () =
  section_header "fig7"
    "quality of equilibrium vs k at alpha=2, with the theory trend (paper Figure 7)";
  let trials = 5 and alpha = 2.0 in
  let ks = [ 2; 3; 4; 5; 6; 7; 10 ] in
  Printf.printf "trees:\n%10s" "n\\k";
  List.iter (fun k -> Printf.printf "%14d" k) ks;
  print_newline ();
  let tree_series = ref [] in
  let trees =
    List.map (fun n -> (n, panel ~n ~trials ~alphas:[ alpha ] ~ks ())) [ 30; 50; 100 ]
  in
  List.iter
    (fun (n, cell) ->
      Printf.printf "%10d" n;
      let points = ref [] in
      List.iter
        (fun k ->
          let runs = cell ~alpha ~k in
          points := (fi k, summary_mean (fun r -> r.Experiment.quality) runs) :: !points;
          Printf.printf "%14s" (summary_str (fun r -> r.Experiment.quality) runs))
        ks;
      tree_series := (Printf.sprintf "trees n=%d" n, List.rev !points) :: !tree_series;
      print_newline ();
      flush stdout)
    trees;
  (* G(n, 0.2), the paper's right panel (scaled from n=100 to n=60). *)
  let n = 60 in
  let gnp = panel ~graph_class:"gnp" ~p:0.2 ~n ~trials ~alphas:[ alpha ] ~ks () in
  Printf.printf "%10s" (Printf.sprintf "G(%d,.2)" n);
  List.iter
    (fun k ->
      Printf.printf "%14s"
        (summary_str (fun r -> r.Experiment.quality) (gnp ~alpha ~k)))
    ks;
  print_newline ();
  (* Theoretical benchmark curve, anchored at k=2 like the paper's red line. *)
  let first_quality =
    summary_mean (fun r -> r.Experiment.quality) ((List.assoc 100 trees) ~alpha ~k:2)
  in
  let trend = Bounds.fig7_trend ~n:100 ~alpha ~anchor_k:2 ~anchor_value:first_quality in
  Printf.printf "%10s" "f(k)";
  List.iter (fun k -> Printf.printf "%14.2f" (trend k)) ks;
  print_newline ();
  chart
    (List.rev
       (("f(k) trend", List.map (fun k -> (fi k, trend k)) ks) :: !tree_series))

(* --- Figures 8 and 9: degrees, bought edges, fairness ----------------------------- *)

let fig89 () =
  section_header "fig8+fig9"
    "max degree / max bought edges / unfairness vs alpha (paper Figures 8-9; G(60,0.1))";
  let n = 60 and p = 0.1 and trials = 4 in
  let ks = [ 2; 3; 5; 1000 ] in
  let alphas = [ 0.1; 0.3; 0.5; 1.0; 1.5; 3.0 ] in
  let cell = panel ~graph_class:"gnp" ~p ~n ~trials ~alphas ~ks () in
  let cells =
    List.map (fun alpha -> (alpha, List.map (fun k -> (k, cell ~alpha ~k)) ks)) alphas
  in
  let print_metric ?(with_chart = false) title f =
    Printf.printf "%s:\n%8s" title "alpha";
    List.iter (fun k -> Printf.printf "%16s" (Printf.sprintf "k=%d" k)) ks;
    print_newline ();
    List.iter
      (fun (alpha, row) ->
        Printf.printf "%8g" alpha;
        List.iter (fun (_, runs) -> Printf.printf "%16s" (summary_str f runs)) row;
        print_newline ())
      cells;
    if with_chart then
      chart
        (List.map
           (fun k ->
             ( Printf.sprintf "k=%d" k,
               List.map
                 (fun (alpha, row) -> (alpha, summary_mean f (List.assoc k row)))
                 cells ))
           ks);
    flush stdout
  in
  print_metric "max degree (Figure 8, left)" (fun r -> fi r.Experiment.max_degree);
  print_metric "max bought edges (Figure 8, right)" (fun r -> fi r.Experiment.max_bought);
  print_metric ~with_chart:true "unfairness ratio (Figure 9)" (fun r ->
      r.Experiment.unfairness)

(* --- Figure 10: convergence time ---------------------------------------------------- *)

let fig10 () =
  section_header "fig10" "rounds to convergence (paper Figure 10; trees)";
  let trials = 5 in
  let ks = [ 2; 3; 5; 10; 1000 ] in
  let alphas = [ 0.1; 0.5; 1.0; 2.0; 5.0; 10.0 ] in
  let cell = panel ~n:60 ~trials ~alphas ~ks () in
  Printf.printf "rounds vs alpha (n = 60):\n%8s" "alpha";
  List.iter (fun k -> Printf.printf "%14s" (Printf.sprintf "k=%d" k)) ks;
  print_newline ();
  List.iter
    (fun alpha ->
      Printf.printf "%8g" alpha;
      List.iter
        (fun k ->
          let runs = cell ~alpha ~k in
          Printf.printf "%14s" (summary_str (fun r -> fi r.Experiment.rounds) runs))
        ks;
      print_newline ();
      flush stdout)
    alphas;
  Printf.printf "rounds vs n (alpha = 2):\n%8s" "n";
  List.iter (fun k -> Printf.printf "%14s" (Printf.sprintf "k=%d" k)) ks;
  print_newline ();
  List.iter
    (fun n ->
      let cell = panel ~n ~trials ~alphas:[ 2.0 ] ~ks () in
      Printf.printf "%8d" n;
      List.iter
        (fun k ->
          let runs = cell ~alpha:2.0 ~k in
          Printf.printf "%14s" (summary_str (fun r -> fi r.Experiment.rounds) runs))
        ks;
      print_newline ();
      flush stdout)
    [ 20; 50; 100; 150 ];
  (* Convergence/cycling tally across every cell of a small sweep. *)
  let runs =
    List.concat_map
      (fun (r : Experiment.cell_result) -> r.Experiment.runs)
      (sweep { spec with n = 40; trials = 3; alphas = [ 0.5; 2.0 ]; ks })
  in
  Printf.printf "best-response cycles observed: %d / %d dynamics\n"
    (List.length (List.filter (fun r -> r.Experiment.cycled) runs))
    (List.length runs)

(* --- Constructions (Lemmas 3.1, 3.2; Theorems 3.12, 4.2) -------------------------------- *)

let lemma31 () =
  section_header "lemma31" "cycle lower bound (Lemma 3.1)";
  Printf.printf "%6s %6s %8s %10s %14s %14s\n" "n" "k" "alpha" "LKE?" "quality"
    "Omega(n/(1+a))";
  List.iter
    (fun (n, k, alpha) ->
      let s = Strategy.of_buys ~n (Ncg_gen.Classic.cycle_buys n) in
      let lke = Lke.is_lke_max ~alpha ~k s in
      let quality =
        match Game.quality Game.Max ~alpha s with Some q -> q | None -> nan
      in
      Printf.printf "%6d %6d %8g %10b %14.2f %14.2f\n%!" n k alpha lke quality
        (Bounds.lb_cycle ~n ~alpha))
    [ (24, 2, 1.0); (48, 3, 2.0); (96, 4, 3.0); (192, 5, 4.0) ]

let lemma32 () =
  section_header "lemma32" "high-girth lower bound via PG(2,q) (Lemma 3.2, k=2)";
  Printf.printf "%4s %6s %8s %8s %10s %14s %16s\n" "q" "n" "edges" "girth" "LKE?"
    "quality" "Omega(n^(1/2))";
  List.iter
    (fun q ->
      let g = Ncg_gen.Projective_plane.incidence q in
      let np = Ncg_gen.Projective_plane.plane_size q in
      let buys =
        List.map (fun (u, v) -> if u < np then (u, v) else (v, u)) (Graph.edges g)
      in
      let n = Graph.order g in
      let s = Strategy.of_buys ~n buys in
      let lke = Lke.is_lke_max ~alpha:1.5 ~k:2 s in
      let quality =
        match Game.quality Game.Max ~alpha:1.5 s with Some q -> q | None -> nan
      in
      let girth = match Ncg_graph.Girth.girth g with Some g -> g | None -> -1 in
      Printf.printf "%4d %6d %8d %8d %10b %14.2f %16.2f\n%!" q n (Graph.size g) girth
        lke quality
        (Bounds.lb_girth ~n ~k:2))
    [ 2; 3; 5 ]

let thm312 () =
  section_header "thm312" "stretched torus equilibrium for MaxNCG (Theorem 3.12)";
  Printf.printf "%6s %6s %8s %8s %10s %14s %14s\n" "n" "k" "alpha" "diam" "LKE?"
    "quality" "theory LB";
  List.iter
    (fun (alpha, k, deltas) ->
      let ell = int_of_float (ceil alpha) in
      let t = Torus_grid.closed ~d:2 ~ell ~deltas in
      let n = Graph.order t.Torus_grid.graph in
      let s = Strategy.of_buys ~n t.Torus_grid.buys in
      let lke = Lke.is_lke_max ~alpha ~k s in
      let quality =
        match Game.quality Game.Max ~alpha s with Some q -> q | None -> nan
      in
      let diam =
        match Metrics.diameter t.Torus_grid.graph with Some d -> d | None -> -1
      in
      Printf.printf "%6d %6d %8g %8d %10b %14.2f %14.2f\n%!" n k alpha diam lke quality
        (Bounds.lb_torus ~n ~alpha ~k))
    [
      (2.0, 2, [| 2; 5 |]);
      (2.0, 2, [| 2; 10 |]);
      (2.0, 2, [| 2; 20 |]);
      (2.0, 4, [| 3; 8 |]);
      (3.0, 3, [| 2; 10 |]);
    ]

let thm42 () =
  section_header "thm42" "stretched torus equilibrium for SumNCG (Theorem 4.2)";
  Printf.printf "%6s %6s %8s %12s %14s %14s\n" "n" "k" "alpha" "Sum-LKE?" "quality"
    "Omega(n/k)";
  List.iter
    (fun (alpha, delta2) ->
      let t = Torus_grid.closed ~d:2 ~ell:2 ~deltas:[| 2; delta2 |] in
      let n = Graph.order t.Torus_grid.graph in
      let s = Strategy.of_buys ~n t.Torus_grid.buys in
      (* k = 2: views are small, the exhaustive check is exact. *)
      let lke = Lke.is_lke_sum_exact ~alpha ~k:2 s in
      let quality =
        match Game.quality Game.Sum ~alpha s with Some q -> q | None -> nan
      in
      Printf.printf "%6d %6d %8g %12b %14.2f %14.2f\n%!" n 2 alpha lke quality
        (fi n /. 2.0))
    [ (33.0, 5); (33.0, 10); (50.0, 15) ]

(* --- Robustness across initial classes (beyond the paper) ------------------------------------ *)

let robustness () =
  section_header "robustness"
    "equilibrium quality by initial graph class (beyond the paper: trees and G(n,p) \
     from Section 5 plus scale-free and small-world starts), n=50, alpha=2, 4 seeds";
  let n = 50 and trials = 4 and alpha = 2.0 in
  (* Sweep_spec.make_initial builds the four classes (p = 0.1, BA m = 2,
     WS k = 4 beta = 0.2). *)
  let classes =
    [
      ("random tree", "tree");
      ("G(n, 0.1)", "gnp");
      ("Barabasi-Albert m=2", "ba");
      ("Watts-Strogatz k=4 b=.2", "ws");
    ]
  in
  Printf.printf "%-26s" "class";
  let ks = [ 2; 3; 5; 1000 ] in
  List.iter (fun k -> Printf.printf "%16s" (Printf.sprintf "k=%d" k)) ks;
  Printf.printf "%14s\n" "rounds(k=3)";
  List.iter
    (fun (name, graph_class) ->
      let cell = panel ~graph_class ~n ~trials ~alphas:[ alpha ] ~ks () in
      Printf.printf "%-26s" name;
      let rounds3 = ref "" in
      List.iter
        (fun k ->
          let runs = cell ~alpha ~k in
          if k = 3 then rounds3 := summary_str (fun r -> fi r.Experiment.rounds) runs;
          Printf.printf "%16s" (summary_str (fun r -> r.Experiment.quality) runs))
        ks;
      Printf.printf "%14s\n%!" !rounds3)
    classes

(* --- Exhaustive tiny-game PoA ---------------------------------------------------------------- *)

let tinypoa () =
  section_header "tinypoa"
    "exact PoA on exhaustively analyzed tiny games: every NE is an LKE and \
     PoA_LKE >= PoA_NE (Section 1's structural claim, machine-checked)";
  Printf.printf "%8s %8s %6s %6s %10s %10s %12s %12s %10s\n" "variant" "alpha" "k" "n"
    "#NE" "#LKE" "PoA(NE)" "PoA(LKE)" "NE<=LKE";
  List.iter
    (fun (variant, alpha, k, n) ->
      let a = Ncg.Enumerate.analyze variant ~alpha ~k ~n in
      let fmt = function Some x -> Printf.sprintf "%.3f" x | None -> "-" in
      Printf.printf "%8s %8g %6d %6d %10d %10d %12s %12s %10b\n%!"
        (Game.variant_to_string variant)
        alpha k n
        (List.length a.Ncg.Enumerate.nash)
        (List.length a.Ncg.Enumerate.lke)
        (fmt (Ncg.Enumerate.poa_nash a))
        (fmt (Ncg.Enumerate.poa_lke a))
        (Ncg.Enumerate.nash_subset_of_lke a))
    [
      (Game.Max, 0.5, 1, 3);
      (Game.Max, 2.0, 1, 3);
      (Game.Max, 2.0, 2, 3);
      (Game.Max, 2.0, 1, 4);
      (Game.Max, 2.0, 2, 4);
      (Game.Max, 2.0, 10, 4);
      (Game.Sum, 2.0, 1, 4);
      (Game.Sum, 2.0, 2, 4);
    ]

(* --- Dynamics-mode ablation (beyond the paper) ---------------------------------------------- *)

let modes () =
  section_header "modes"
    "dynamics ablation: exact best responses (the paper) vs single-move better responses, \
     round-robin vs random sweeps (trees n=60, alpha=1, k=3, 5 seeds)";
  let spec = { spec with n = 60; trials = 5 } in
  Printf.printf "%-28s %14s %14s %14s\n" "mode" "quality" "rounds" "moves";
  List.iter
    (fun (name, tweak) ->
      let runs = tweaked_runs spec ~tweak { Experiment.alpha = 1.0; k = 3 } in
      Printf.printf "%-28s %14s %14s %14s\n%!" name
        (summary_str (fun r -> r.Experiment.quality) runs)
        (summary_str (fun r -> fi r.Experiment.rounds) runs)
        (summary_str (fun r -> fi r.Experiment.total_moves) runs))
    [
      ("best response, round robin", Fun.id);
      ( "best response, random sweep",
        fun c -> { c with Dynamics.order = `Random_sweep 7 } );
      ( "single moves, round robin",
        fun c -> { c with Dynamics.response = `Local_moves } );
      ( "single moves, random sweep",
        fun c ->
          { c with Dynamics.response = `Local_moves; order = `Random_sweep 7 } );
    ]

(* --- SumNCG dynamics (the paper's open experimental direction) ------------------------------ *)

let sumdyn () =
  section_header "sumdyn"
    "SumNCG best-response dynamics (not in the paper: Section 5 restricts to MaxNCG \
     for tractability; our branch-and-bound engine makes small instances exact)";
  Printf.printf "%6s %6s %8s %14s %14s %12s\n" "n" "k" "alpha" "quality" "rounds"
    "conv.frac";
  List.iter
    (fun (n, k, alpha) ->
      let runs =
        tweaked_runs { spec with n; trials = 4 }
          ~tweak:(fun c ->
            {
              c with
              Dynamics.variant = Game.Sum;
              sum_mode = `Branch_and_bound 34;
              max_rounds = 60;
            })
          { Experiment.alpha; k }
      in
      Printf.printf "%6d %6d %8g %14s %14s %12.2f\n%!" n k alpha
        (summary_str (fun r -> r.Experiment.quality) runs)
        (summary_str (fun r -> fi r.Experiment.rounds) runs)
        (Experiment.fraction (fun r -> r.Experiment.converged) runs))
    [ (20, 2, 1.0); (20, 2, 3.0); (30, 2, 2.0); (20, 3, 2.0) ]

(* --- Solver ablation ----------------------------------------------------------------------- *)

let ablation () =
  section_header "ablation"
    "best-response solver ablation: exact vs budgeted B&B vs greedy (G(100,0.1), alpha=0.1, full view)";
  let make () = Experiment.initial_gnp ~seed:1 ~n:100 ~p:0.1 in
  Printf.printf "%-16s %10s %10s %10s %10s\n" "solver" "time(s)" "rounds" "moves" "quality";
  List.iter
    (fun (name, solver) ->
      (* No move budget: the exact row must run the exact solver to the
         end (about 30 s) to measure it. *)
      let cfg =
        {
          (Sweep_spec.make_config spec { Experiment.alpha = 0.1; k = 1000 }) with
          Dynamics.solver;
          move_budget = 0;
        }
      in
      let t0 = Ncg_obs.Clock.now_ns () in
      let r = Experiment.run_one cfg (make ()) in
      Printf.printf "%-16s %10.2f %10d %10d %10.3f\n%!" name
        (Ncg_obs.Clock.ns_to_s (Ncg_obs.Clock.elapsed_ns ~since:t0))
        r.Experiment.rounds r.Experiment.total_moves r.Experiment.quality)
    [
      ("exact", `Exact);
      ("budget 50k", `Budgeted 50_000);
      ("budget 2k", `Budgeted 2_000);
      ("greedy", `Greedy);
    ]

(* --- Driver ---------------------------------------------------------------------------------- *)

let sections =
  [
    ("table1", table1);
    ("table2", table2);
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig89", fig89);
    ("fig10", fig10);
    ("lemma31", lemma31);
    ("lemma32", lemma32);
    ("thm312", thm312);
    ("thm42", thm42);
    ("tinypoa", tinypoa);
    ("robustness", robustness);
    ("modes", modes);
    ("sumdyn", sumdyn);
    ("ablation", ablation);
  ]

let run_timed f =
  let s0 = Ncg_obs.Clock.now_ns () in
  f ();
  Printf.printf "[section time: %.1fs]\n%!"
    (Ncg_obs.Clock.ns_to_s (Ncg_obs.Clock.elapsed_ns ~since:s0))

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "list" ] -> List.iter (fun (name, _) -> print_endline name) sections
  | [] ->
      let t0 = Ncg_obs.Clock.now_ns () in
      List.iter (fun (_, f) -> run_timed f) sections;
      Printf.printf "\nTotal: %.1fs\n"
        (Ncg_obs.Clock.ns_to_s (Ncg_obs.Clock.elapsed_ns ~since:t0))
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name sections with
          | Some f -> run_timed f
          | None ->
              Printf.eprintf "unknown section %S (try: %s)\n" name
                (String.concat ", " (List.map fst sections));
              exit 1)
        names
