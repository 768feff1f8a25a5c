(* ncg_sim: run one round-robin best-response dynamics and print per-round
   features as CSV.

   The final profile is certified with the exact solver (Max variant) or
   the single-move check (Sum variant), whatever --solver the run used.
   Bad -n/-p values exit 2. A player move that exhausts the engine's
   move budget (Dynamics.default_config's move_budget checkpoints)
   prints the timeout on stderr and exits 3.

   Example:
     dune exec bin/ncg_sim.exe -- --class tree -n 50 --alpha 2 -k 3 --seed 7
     dune exec bin/ncg_sim.exe -- --class gnp -n 100 -p 0.1 --alpha 0.5 -k 5 *)

open Cmdliner

(* cycle and star starts are not Sweep_spec classes: check only their n. *)
let validate graph_class n p =
  match graph_class with
  | "cycle" -> if n < 3 then Error "n must be at least 3 for a cycle" else Ok ()
  | "star" -> if n < 2 then Error "n must be at least 2" else Ok ()
  | _ -> Ncg.Sweep_spec.validate { Ncg.Sweep_spec.default with graph_class; n; p }

let run graph_class n p alpha k seed variant solver max_rounds quiet =
  (match validate graph_class n p with
  | Ok () -> ()
  | Error msg ->
      Printf.eprintf "ncg_sim: %s\n%!" msg;
      exit 2);
  let strategy =
    match graph_class with
    | "cycle" -> Ncg.Strategy.of_buys ~n (Ncg_gen.Classic.cycle_buys n)
    | "star" -> Ncg.Strategy.of_buys ~n (Ncg_gen.Classic.star_buys n)
    | _ -> Ncg.Sweep_spec.make_initial { Ncg.Sweep_spec.default with graph_class; n; p } ~seed
  in
  let config =
    {
      (Ncg.Dynamics.default_config ~alpha ~k) with
      Ncg.Dynamics.variant;
      solver;
      max_rounds;
    }
  in
  let result =
    try Ncg.Dynamics.run config strategy
    with Ncg_fault.Cancel.Timed_out what ->
      Printf.eprintf "ncg_sim: a player move timed out (%s)\n%!" what;
      exit 3
  in
  if not quiet then begin
    print_endline Ncg.Features.csv_header;
    List.iter
      (fun f -> print_endline (Ncg.Features.to_csv_row f))
      result.Ncg.Dynamics.features
  end;
  let outcome =
    match result.Ncg.Dynamics.outcome with
    | Ncg.Dynamics.Converged r -> Printf.sprintf "converged after %d changing round(s)" (r - 1)
    | Ncg.Dynamics.Cycle_detected r -> Printf.sprintf "best-response cycle detected at round %d" r
    | Ncg.Dynamics.Max_rounds_exceeded -> "max rounds exceeded"
  in
  Printf.printf "# outcome: %s; total moves: %d\n" outcome result.Ncg.Dynamics.total_moves;
  (match Ncg.Game.quality variant ~alpha result.Ncg.Dynamics.final with
  | Some q -> Printf.printf "# quality of final configuration: %.4f\n" q
  | None -> Printf.printf "# final configuration disconnected\n");
  let lke =
    match variant with
    | Ncg.Game.Max -> Ncg.Lke.is_lke_max ~alpha ~k result.Ncg.Dynamics.final
    | Ncg.Game.Sum -> Ncg.Lke.is_single_move_stable_sum ~alpha ~k result.Ncg.Dynamics.final
  in
  Printf.printf "# certified stable: %b\n" lke

let graph_class =
  let classes =
    List.map (fun c -> (c, c)) (Ncg.Sweep_spec.graph_classes @ [ "cycle"; "star" ])
  in
  Arg.(value & opt (enum classes) "tree" & info [ "class" ] ~docv:"CLASS"
         ~doc:("Initial graph class: " ^ doc_alts_enum classes ^ "."))

let n = Arg.(value & opt int 50 & info [ "n" ] ~docv:"N" ~doc:"Number of players.")
let p = Arg.(value & opt float 0.1 & info [ "p" ] ~docv:"P" ~doc:"Edge probability for gnp.")
let alpha = Arg.(value & opt float 2.0 & info [ "alpha"; "a" ] ~docv:"ALPHA" ~doc:"Edge price.")
let k = Arg.(value & opt int 3 & info [ "k" ] ~docv:"K" ~doc:"View radius (1000 = full knowledge).")
let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let variant =
  Arg.(value & opt (enum [ ("max", Ncg.Game.Max); ("sum", Ncg.Game.Sum) ]) Ncg.Game.Max
       & info [ "variant" ] ~docv:"V" ~doc:"Game variant: max or sum.")

let solver_conv =
  let parse = function
    | "exact" -> Ok `Exact
    | "greedy" -> Ok `Greedy
    | s -> (
        match int_of_string_opt s with
        | Some budget when budget > 0 -> Ok (`Budgeted budget)
        | _ ->
            Error
              (Printf.sprintf "%S: expected exact, greedy or a positive node budget" s))
  in
  let print ppf = function
    | `Exact -> Format.pp_print_string ppf "exact"
    | `Greedy -> Format.pp_print_string ppf "greedy"
    | `Budgeted budget -> Format.pp_print_int ppf budget
  in
  Arg.conv' (parse, print)

let solver =
  Arg.(value & opt solver_conv `Exact & info [ "solver" ] ~docv:"S"
         ~doc:"Best-response solver: exact, greedy, or a positive integer node budget.")

let max_rounds = Arg.(value & opt int 200 & info [ "max-rounds" ] ~doc:"Round cap.")
let quiet = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Suppress the per-round CSV.")

let cmd =
  let doc = "simulate locality-based network creation dynamics" in
  Cmd.v
    (Cmd.info "ncg_sim" ~doc)
    Term.(const run $ graph_class $ n $ p $ alpha $ k $ seed $ variant $ solver $ max_rounds $ quiet)

let () = exit (Cmd.eval cmd)
