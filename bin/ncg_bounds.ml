(* ncg_bounds: print the paper's theoretical PoA bound tables (the textual
   form of Figures 3 and 4) for a given number of players.

   Example:
     dune exec bin/ncg_bounds.exe -- -n 100000
     dune exec bin/ncg_bounds.exe -- -n 1000 --game sum

   A bad -n or k exits 2, before any table is printed. *)

open Cmdliner

let default_alphas = [ 0.5; 1.0; 2.0; 5.0; 10.0; 100.0; 1000.0 ]
let default_ks = [ 1; 2; 3; 5; 10; 30; 100 ]

let run n game alphas ks =
  let alphas = if alphas = [] then default_alphas else alphas in
  let ks = if ks = [] then default_ks else ks in
  if n < 2 then Spec_cli.exit_usage ~tool:"ncg_bounds" "N must be at least 2";
  List.iter
    (fun k ->
      if k < 1 then
        Spec_cli.exit_usage ~tool:"ncg_bounds" "k must be at least 1, got %d" k)
    ks;
  match game with
  | `Max -> print_string (Ncg.Bounds.max_table ~n ~alphas ~ks)
  | `Sum -> print_string (Ncg.Bounds.sum_table ~n ~alphas ~ks)
  | `Both ->
      print_string (Ncg.Bounds.max_table ~n ~alphas ~ks);
      print_newline ();
      print_string (Ncg.Bounds.sum_table ~n ~alphas ~ks)

let n = Arg.(value & opt int 100_000 & info [ "n" ] ~docv:"N" ~doc:"Number of players.")
let game =
  Arg.(value & opt (enum [ ("max", `Max); ("sum", `Sum); ("both", `Both) ]) `Both
       & info [ "game" ] ~docv:"G" ~doc:"max, sum or both.")

let alphas =
  Arg.(value & opt (list float) [] & info [ "alphas" ] ~docv:"LIST" ~doc:"Comma-separated alpha values.")

let ks = Arg.(value & opt (list int) [] & info [ "ks" ] ~docv:"LIST" ~doc:"Comma-separated k values.")

let cmd =
  let doc = "print the theoretical PoA bound tables (Figures 3 and 4)" in
  Cmd.v (Cmd.info "ncg_bounds" ~doc) Term.(const run $ n $ game $ alphas $ ks)

let () = exit (Cmd.eval cmd)
