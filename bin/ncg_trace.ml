(* ncg_trace: run one trajectory, trial J of a sweep cell, and audit it.

   record : run trial J of the cell ALPHA:K of the sweep the spec flags
            (--class -n -p --seed --budget --move-budget, ncg_experiment's
            flags and defaults) describe: the same start and dynamics
            config as that trial of ncg_experiment --only-cell ALPHA:K.
            Saves the initial profile and the move trace, and prints the
            per-round features CSV, then "# outcome", "# moves" and
            "# quality" lines. Bad values exit 2; a player move that
            exhausts --move-budget prints the timeout and exits 3.
   verify : reload both files, replay the trace, check the replay
            invariant and certify the replayed profile as an LKE at
            (ALPHA, K) with the exact solver; exits 2 when it is not
            one, and 1 (with "ncg_trace: PATH: REASON") when a file is
            missing or does not parse or replay.

   Example:
     dune exec bin/ncg_trace.exe -- record --class tree -n 30 \
         --only-cell 2:3 --trial 0 --prefix /tmp/run1
     dune exec bin/ncg_trace.exe -- verify --prefix /tmp/run1 --only-cell 2:3 *)

open Cmdliner
module Sweep_spec = Ncg.Sweep_spec
module Dynamics = Ncg.Dynamics

let tool = "ncg_trace"
let initial_path prefix = prefix ^ ".initial"
let trace_path prefix = prefix ^ ".trace"

(* The spec narrowed to one cell, checked as ncg_experiment checks it. *)
let cell_spec spec only_cell =
  let cell = Spec_cli.parse_only_cell ~tool only_cell in
  let spec =
    { spec with Sweep_spec.alphas = [ cell.Ncg.Experiment.alpha ]; ks = [ cell.k ] }
  in
  Spec_cli.validate ~tool spec;
  (spec, cell)

(* A file that cannot be written, or read back, parsed and replayed, is
   fatal: "ncg_trace: PATH: REASON" and exit 1. *)
let fail path reason =
  (* Sys_error messages already start with the path. *)
  let prefix = path ^ ": " in
  let cut = String.length prefix in
  let reason =
    if String.starts_with ~prefix reason then
      String.sub reason cut (String.length reason - cut)
    else reason
  in
  Printf.eprintf "%s: %s: %s\n%!" tool path reason;
  exit 1

let save path contents =
  try Ncg_obs.Atomic_file.write path contents with Sys_error reason -> fail path reason

let load path of_string =
  try of_string (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error reason | Invalid_argument reason -> fail path reason

let record spec only_cell trial prefix =
  let spec, cell = cell_spec spec only_cell in
  if trial < 0 then Spec_cli.exit_usage ~tool "trial must be non-negative";
  let strategy =
    Sweep_spec.make_initial spec ~seed:(Sweep_spec.trial_seed spec cell ~trial)
  in
  let config =
    { (Sweep_spec.make_config spec cell) with Dynamics.collect_features = true }
  in
  let result =
    try Dynamics.run config strategy
    with Ncg_fault.Cancel.Timed_out what ->
      Printf.eprintf "%s: a player move timed out (%s)\n%!" tool what;
      exit 3
  in
  save (initial_path prefix) (Ncg.Strategy.to_string strategy);
  save (trace_path prefix) (Ncg.Trace.to_string result.Dynamics.trace);
  print_endline Ncg.Features.csv_header;
  List.iter
    (fun f -> print_endline (Ncg.Features.to_csv_row f))
    result.Dynamics.features;
  (match result.Dynamics.outcome with
  | Dynamics.Converged r ->
      Printf.printf "# outcome: converged after %d changing round(s)\n" (r - 1)
  | Dynamics.Cycle_detected r ->
      Printf.printf "# outcome: best-response cycle detected at round %d\n" r
  | Dynamics.Max_rounds_exceeded -> print_endline "# outcome: max rounds exceeded");
  Printf.printf "# moves: %d, recorded to %s{.initial,.trace}\n"
    (Ncg.Trace.length result.Dynamics.trace)
    prefix;
  match Ncg.Game.quality Ncg.Game.Max ~alpha:cell.alpha result.Dynamics.final with
  | Some q -> Printf.printf "# quality: %.4f\n" q
  | None -> print_endline "# quality: disconnected"

let verify prefix only_cell =
  let _, { Ncg.Experiment.alpha; k } = cell_spec Sweep_spec.default only_cell in
  let initial = load (initial_path prefix) Ncg.Strategy.of_string in
  let trace = load (trace_path prefix) Ncg.Trace.of_string in
  let final =
    try Ncg.Trace.replay initial trace
    with Invalid_argument reason -> fail (trace_path prefix) reason
  in
  Printf.printf "replayed %d move(s) cleanly\n" (Ncg.Trace.length trace);
  let lke = Ncg.Lke.is_lke_max ~alpha ~k final in
  Printf.printf "replayed profile is an LKE at (alpha=%g, k=%d): %b\n" alpha k lke;
  (match Ncg.Game.quality Ncg.Game.Max ~alpha final with
  | Some q -> Printf.printf "quality: %.4f\n" q
  | None -> print_endline "replayed profile disconnected?!");
  if not lke then exit 2

let only_cell =
  Arg.(required & opt (some string) None & info [ "only-cell" ] ~docv:"ALPHA:K"
         ~doc:"The sweep cell (ALPHA, K) whose trial to run or certify.")

let trial =
  Arg.(value & opt int 0 & info [ "trial" ] ~docv:"J"
         ~doc:"Trial of the cell to run: the start ncg_experiment's trial J \
               of the cell begins from.")

let prefix =
  Arg.(required & opt (some string) None & info [ "prefix" ] ~docv:"PATH"
         ~doc:"File prefix for the .initial and .trace files.")

let record_cmd =
  Cmd.v
    (Cmd.info "record" ~doc:"run trial J of a sweep cell and save its start and trace")
    Term.(const record $ Spec_cli.spec $ only_cell $ trial $ prefix)

let verify_cmd =
  Cmd.v (Cmd.info "verify" ~doc:"replay a saved trace and certify the result")
    Term.(const verify $ prefix $ only_cell)

let cmd =
  Cmd.group (Cmd.info "ncg_trace" ~doc:"record and audit one trajectory of a sweep cell")
    [ record_cmd; verify_cmd ]

let () = exit (Cmd.eval cmd)
