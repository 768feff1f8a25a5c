(* Figure 6-style scenario: best-response dynamics on uniform random trees
   for several view radii, reporting the quality of the resulting
   equilibria — the locality/efficiency trade-off the paper measures.

   Run with:  dune exec examples/tree_dynamics.exe *)

module Experiment = Ncg.Experiment
module Sweep_spec = Ncg.Sweep_spec
module Summary = Ncg_stats.Summary

let () =
  let spec =
    {
      Sweep_spec.default with
      n = 40;
      trials = 5;
      alphas = [ 2.0 ];
      ks = [ 2; 3; 4; 5; 1000 ];
    }
  in
  Printf.printf
    "Best-response dynamics on %d-vertex random trees, alpha = %g, %d seeds per k\n\n"
    spec.n (List.hd spec.alphas) spec.trials;
  Printf.printf "%6s %18s %14s %14s %12s\n" "k" "quality (±95% CI)" "rounds" "diameter"
    "min view";
  List.iter
    (function
      | Ok (r : Experiment.cell_result) ->
          let summary f = Summary.to_string (Experiment.summarize f r.runs) in
          Printf.printf "%6d %18s %14s %14s %12s\n" r.cell.k
            (summary (fun r -> r.Experiment.quality))
            (summary (fun r -> float_of_int r.Experiment.rounds))
            (summary (fun r -> float_of_int r.Experiment.diameter))
            (summary (fun r -> float_of_int r.Experiment.min_view))
      | Error (f : Experiment.cell_failure) -> raise f.exn)
    (Sweep_spec.sweep spec);
  print_newline ();
  print_endline
    "Reading: small k leaves long chains in place (high quality ratio = bad),";
  print_endline
    "and as soon as players see most of the tree the equilibria match the";
  print_endline "full-knowledge game (quality near 1). Compare paper Figure 6."
