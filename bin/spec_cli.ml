(* The sweep-spec flags shared by ncg_experiment and ncg_trace record:
   --class -n -p --seed --budget --move-budget, defaulting to
   Sweep_spec.default. A trajectory recorded by ncg_trace is then a trial
   of the sweep cell ncg_experiment runs under the same flags. *)

open Cmdliner
module Sweep_spec = Ncg.Sweep_spec

let default = Sweep_spec.default

let graph_class =
  Arg.(value & opt string default.Sweep_spec.graph_class
       & info [ "class" ] ~docv:"CLASS"
           ~doc:"tree, gnp, ba (Barabasi-Albert) or ws (Watts-Strogatz).")

let n =
  Arg.(value & opt int default.Sweep_spec.n & info [ "n" ] ~docv:"N" ~doc:"Players.")

let p =
  Arg.(value & opt float default.Sweep_spec.p & info [ "p" ] ~docv:"P"
         ~doc:"Edge probability (gnp).")

let seed =
  Arg.(value & opt int default.Sweep_spec.seed & info [ "seed" ] ~doc:"Base seed.")

let budget =
  Arg.(value & opt int default.Sweep_spec.budget & info [ "budget" ]
         ~doc:"Branch-and-bound node budget per best response.")

let move_budget =
  Arg.(value & opt int default.Sweep_spec.move_budget
       & info [ "move-budget" ] ~docv:"N"
           ~doc:"Cooperative checkpoint polls allowed per player move \
                 (0 = unlimited); an exhausted budget fails the move's \
                 cell with a timeout.")

(* Sweep_spec.default with the six flags applied; callers set the grid,
   trials and probes. *)
let spec =
  let make graph_class n p seed budget move_budget =
    { default with Sweep_spec.graph_class; n; p; seed; budget; move_budget }
  in
  Term.(const make $ graph_class $ n $ p $ seed $ budget $ move_budget)

(* A bad option value: "TOOL: MESSAGE" on stderr, exit 2. *)
let exit_usage ~tool fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "%s: %s\n%!" tool msg;
      exit 2)
    fmt

let parse_only_cell ~tool s =
  match String.index_opt s ':' with
  | Some i -> (
      let a = String.sub s 0 i in
      let k = String.sub s (i + 1) (String.length s - i - 1) in
      match (float_of_string_opt a, int_of_string_opt k) with
      | Some alpha, Some k -> { Ncg.Experiment.alpha; k }
      | _ -> exit_usage ~tool "--only-cell: cannot parse %S as ALPHA:K" s)
  | None -> exit_usage ~tool "--only-cell expects ALPHA:K, got %S" s

let validate ~tool spec =
  match Sweep_spec.validate spec with
  | Ok () -> ()
  | Error msg -> exit_usage ~tool "%s" msg
