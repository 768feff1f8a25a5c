(* ncg_trace: record and audit dynamics traces.

   record : run a dynamics, save the initial profile and the move trace;
            bad -n/-p values exit 2, and a player move that exhausts the
            engine's move budget prints the timeout and exits 3
   verify : reload both, replay the trace, check the replay invariant and
            certify the replayed profile as an LKE with the exact solver,
            whatever solver recorded it; exits 2 when it is not one

   Example:
     dune exec bin/ncg_trace.exe -- record --class tree -n 30 --alpha 2 \
         -k 3 --prefix /tmp/run1
     dune exec bin/ncg_trace.exe -- verify --prefix /tmp/run1 --alpha 2 -k 3 *)

open Cmdliner

let write_file = Ncg_obs.Atomic_file.write

let read_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let initial_path prefix = prefix ^ ".initial"
let trace_path prefix = prefix ^ ".trace"

let record graph_class n p alpha k seed prefix =
  let spec = { Ncg.Sweep_spec.default with graph_class; n; p } in
  (match Ncg.Sweep_spec.validate spec with
  | Ok () -> ()
  | Error msg ->
      Printf.eprintf "ncg_trace: %s\n%!" msg;
      exit 2);
  let strategy = Ncg.Sweep_spec.make_initial spec ~seed in
  let config =
    { (Ncg.Dynamics.default_config ~alpha ~k) with Ncg.Dynamics.solver = `Budgeted 50_000 }
  in
  let result =
    try Ncg.Dynamics.run config strategy
    with Ncg_fault.Cancel.Timed_out what ->
      Printf.eprintf "ncg_trace: a player move timed out (%s)\n%!" what;
      exit 3
  in
  write_file (initial_path prefix) (Ncg.Strategy.to_string strategy);
  write_file (trace_path prefix) (Ncg.Trace.to_string result.Ncg.Dynamics.trace);
  Printf.printf "recorded %d move(s) to %s{.initial,.trace}\n"
    (Ncg.Trace.length result.Ncg.Dynamics.trace)
    prefix;
  match result.Ncg.Dynamics.outcome with
  | Ncg.Dynamics.Converged r -> Printf.printf "converged after %d changing round(s)\n" (r - 1)
  | Ncg.Dynamics.Cycle_detected r -> Printf.printf "cycle detected at round %d\n" r
  | Ncg.Dynamics.Max_rounds_exceeded -> print_endline "round budget exhausted"

let verify prefix alpha k =
  let initial = Ncg.Strategy.of_string (read_file (initial_path prefix)) in
  let trace = Ncg.Trace.of_string (read_file (trace_path prefix)) in
  let final = Ncg.Trace.replay initial trace in
  Printf.printf "replayed %d move(s) cleanly\n" (Ncg.Trace.length trace);
  let lke = Ncg.Lke.is_lke_max ~alpha ~k final in
  Printf.printf "replayed profile is an LKE at (alpha=%g, k=%d): %b\n" alpha k lke;
  (match Ncg.Game.quality Ncg.Game.Max ~alpha final with
  | Some q -> Printf.printf "quality: %.4f\n" q
  | None -> print_endline "replayed profile disconnected?!");
  if not lke then exit 2

let graph_class =
  let classes = List.map (fun c -> (c, c)) Ncg.Sweep_spec.graph_classes in
  Arg.(value & opt (enum classes) "tree" & info [ "class" ] ~docv:"CLASS"
         ~doc:("Initial graph class: " ^ doc_alts_enum classes ^ "."))

let n = Arg.(value & opt int 30 & info [ "n" ] ~doc:"Players.")
let p = Arg.(value & opt float 0.1 & info [ "p" ] ~doc:"Edge probability (gnp).")
let alpha = Arg.(value & opt float 2.0 & info [ "alpha"; "a" ] ~doc:"Edge price.")
let k = Arg.(value & opt int 3 & info [ "k" ] ~doc:"View radius.")
let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.")

let prefix =
  Arg.(required & opt (some string) None & info [ "prefix" ] ~docv:"PATH"
         ~doc:"File prefix for the .initial and .trace files.")

let record_cmd =
  Cmd.v (Cmd.info "record" ~doc:"run a dynamics and save initial profile + trace")
    Term.(const record $ graph_class $ n $ p $ alpha $ k $ seed $ prefix)

let verify_cmd =
  Cmd.v (Cmd.info "verify" ~doc:"replay a saved trace and certify the result")
    Term.(const verify $ prefix $ alpha $ k)

let cmd =
  Cmd.group (Cmd.info "ncg_trace" ~doc:"record and audit dynamics traces")
    [ record_cmd; verify_cmd ]

let () = exit (Cmd.eval cmd)
