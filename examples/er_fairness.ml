(* Figure 9-style scenario: fairness of equilibria reached from connected
   Erdős–Rényi graphs, as a function of the edge price alpha and the view
   radius k. The paper's observation: restricting the view yields *fairer*
   equilibria (lower max/min player-cost ratio).

   Run with:  dune exec examples/er_fairness.exe *)

module Experiment = Ncg.Experiment
module Sweep_spec = Ncg.Sweep_spec
module Summary = Ncg_stats.Summary

let () =
  let ks = [ 2; 3; 1000 ] in
  let spec =
    {
      Sweep_spec.default with
      graph_class = "gnp";
      n = 40;
      p = 0.12;
      trials = 4;
      seed = 99;
      alphas = [ 0.5; 1.0; 2.0; 5.0 ];
      ks;
    }
  in
  Printf.printf
    "Unfairness (max player cost / min player cost) on G(%d, %.2f), %d seeds\n\n"
    spec.n spec.p spec.trials;
  Printf.printf "%8s" "alpha";
  List.iter (fun k -> Printf.printf "%16s" (Printf.sprintf "k=%d" k)) ks;
  (* Cells come back row-major: every k of one alpha, then the next. *)
  List.iter
    (function
      | Ok (r : Experiment.cell_result) ->
          let { Experiment.alpha; k } = r.cell in
          if k = List.hd ks then Printf.printf "\n%8g" alpha;
          let u = Experiment.summarize (fun r -> r.Experiment.unfairness) r.runs in
          Printf.printf "%16s" (Summary.to_string u)
      | Error (f : Experiment.cell_failure) -> raise f.exn)
    (Sweep_spec.sweep spec);
  print_newline ();
  print_newline ();
  print_endline "Compare paper Figure 9: small k yields more fair equilibria.";
  print_endline
    "(Full knowledge lets a few hubs absorb most edges, producing high-cost";
  print_endline "centers and cheap leaves; local views flatten the outcome.)"
