(* ncg_experiment: run a parameter grid of best-response dynamics and print
   one CSV row per (alpha, k) cell — the raw series behind the paper's
   Figures 5-10.

   Cells are independent and fan out over OCaml domains (--domains); for a
   fixed --seed the CSV is byte-identical whatever the domain count, since
   every cell draws its RNG streams from a SplitMix64 split of the seed
   before the fan-out. --telemetry FILE additionally dumps per-cell wall
   times, hot-path counters (BFS calls, solver nodes, best responses),
   latency histograms, GC deltas and span trees as JSON, the one sweep
   document: ncg_report --telemetry FILE renders it as a Markdown report
   and ncg_bench_diff gates it against bench/BASELINE.json.

   --store DIR keeps a crash-safe result cache (see docs/STORE.md): cells
   already in the store are returned without recomputation, fresh cells
   are appended (fsync'd) the moment they finish, so a killed sweep
   resumes from where it died. --resume is --store plus a guard that DIR
   already exists. A cell's seeds depend on (--seed, alpha, k) alone,
   so a stored cell never needs recomputing (to re-time a grid, run it
   without --store or on a fresh store), and --only-cell ALPHA:K runs
   that one cell and prints the row (or the quarantine) any sweep
   containing it would.

   Sweeps run under a supervised executor (see docs/ROBUSTNESS.md): each
   cell gets one attempt, and a failing cell is quarantined while every
   other cell completes; quarantines are listed on stderr and in the
   telemetry failure report ("sweep.failures") and make the exit code 3.
   A cell is a pure function of (--seed, alpha, k), so a retry would
   fail the same way; rerun with --resume once the cause is gone.
   --cell-deadline-ms bounds each cell (watchdog + cooperative
   cancellation); --move-budget bounds a single player move's search
   steps so a pathological cell times out instead of hanging. Step
   counts are deterministic, so a small --move-budget quarantines the
   same cells on any --domains: the way to exercise that machinery.
   SIGINT/SIGTERM flush the store and telemetry before exiting
   128+signal.

   Examples:
     # Figure 5 series (view sizes) on 50-vertex trees, 5 seeds per cell
     dune exec bin/ncg_experiment.exe -- --class tree -n 50 --trials 5

     # Figure 8/9 series on G(100, 0.1), 4 domains, with telemetry
     dune exec bin/ncg_experiment.exe -- --class gnp -n 100 -p 0.1 \
         --alphas 0.5,1,2 --ks 2,3,1000 --domains 4 --telemetry cells.json

     # Resumable sweep: kill it, rerun the same line, only missing cells run
     dune exec bin/ncg_experiment.exe -- --class gnp -n 100 -p 0.1 \
         --trials 5 --store results/gnp100

     # Reproduce one cell of that sweep in isolation
     dune exec bin/ncg_experiment.exe -- --class gnp -n 100 -p 0.1 \
         --trials 5 --only-cell 2:1000 *)

open Cmdliner
module Experiment = Ncg.Experiment
module Store = Ncg_store.Store
module Metrics = Ncg_obs.Metrics
module Json = Ncg_obs.Json

(* Sys.sigint / Sys.sigterm are OCaml-internal numbers; exit codes and
   logs want the POSIX ones. *)
let posix_signal s =
  if s = Sys.sigint then 2 else if s = Sys.sigterm then 15 else 0

let install_signal_handlers () =
  let handle s = Ncg_fault.Cancel.request_shutdown (posix_signal s) in
  List.iter
    (fun s ->
      try ignore (Sys.signal s (Sys.Signal_handle handle))
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigint; Sys.sigterm ]

let run spec alphas ks trials domains store_dir resume only_cell telemetry quiet
    no_probes cell_deadline_ms =
  if quiet then Ncg_obs.Progress.set_enabled false;
  let probes = not no_probes in
  let cell_deadline_ns =
    if cell_deadline_ms <= 0. then None
    else Some (Int64.of_float (cell_deadline_ms *. 1e6))
  in
  install_signal_handlers ();
  let alphas, ks =
    match only_cell with
    | Some s ->
        let c = Spec_cli.parse_only_cell ~tool:"ncg_experiment" s in
        ([ c.Experiment.alpha ], [ c.Experiment.k ])
    | None ->
        ( (if alphas = [] then spec.Ncg.Sweep_spec.alphas else alphas),
          if ks = [] then spec.ks else ks )
  in
  (* One spec record drives everything downstream — the same compiler
     perfbench and the tests use, so every path builds a cell from
     identical constructors. *)
  let spec = { spec with Ncg.Sweep_spec.alphas; ks; trials; probes } in
  Spec_cli.validate ~tool:"ncg_experiment" spec;
  let { Ncg.Sweep_spec.graph_class; n; p; seed; _ } = spec in
  (if resume && store_dir = None then begin
     Printf.eprintf "ncg_experiment: --resume requires --store DIR\n%!";
     exit 2
   end);
  let store =
    match store_dir with
    | None -> None
    | Some dir ->
        if resume && not (Sys.file_exists dir) then begin
          Printf.eprintf
            "ncg_experiment: --resume: store %s does not exist (drop --resume \
             to create it)\n%!"
            dir;
          exit 1
        end;
        Some
          (try Store.open_dir dir
           with Store.Locked { dir; pid } ->
             Printf.eprintf
               "ncg_experiment: store %s is locked by a running sweep (pid \
                %d); wait for it or pick another --store\n%!"
               dir pid;
             exit 1)
  in
  let started = Ncg_obs.Clock.now_ns () in
  let outcomes = Ncg.Sweep_spec.sweep ~domains ?cell_deadline_ns ?store spec in
  let results = List.filter_map Result.to_option outcomes in
  let failures = Experiment.sweep_failures outcomes in
  let interrupted = Ncg_fault.Cancel.shutdown_requested () in
  let sweep_wall = Ncg_obs.Clock.elapsed_ns ~since:started in
  print_endline Experiment.csv_header;
  List.iter
    (fun (r : Experiment.cell_result) ->
      print_string (Ncg.Sweep_spec.csv_row spec r);
      print_newline ();
      flush stdout)
    results;
  (match telemetry with
  | None -> ()
  | Some path -> (
      let store_fields =
        match store with
        | None -> []
        | Some s -> [ ("store", Store.stats_to_json (Store.stats s)) ]
      in
      let doc =
        Json.Obj
          ([
             (* /7: no fault-injection plan key (fault injection is gone). *)
             ("schema", Json.String Ncg_obs.Schema.experiment_telemetry);
             ("seed", Json.Int seed);
             ("domains", Json.Int domains);
             ("probes", Json.Bool probes);
             ("interrupted", Json.Bool (interrupted <> None));
             ("failed_cells", Json.Int (List.length failures));
             ( "sweep.failures",
               Json.List
                 (List.map
                    (fun (f : Experiment.cell_failure) ->
                      match Experiment.cell_failure_to_json f with
                      | Json.Obj fields ->
                          (* The exact CSV row prefix of the quarantined
                             cell, so tooling (test_cli's fault cases) can
                             filter it from a clean run's CSV without
                             re-deriving float formatting. *)
                          Json.Obj
                            (fields
                            @ [
                                ( "csv_row_prefix",
                                  Json.String
                                    (Experiment.csv_row_prefix ~graph_class ~n ~p
                                       ~trials f.Experiment.cell) );
                              ])
                      | j -> j)
                    failures) );
             ("wall_seconds", Json.Float (Ncg_obs.Clock.ns_to_s sweep_wall));
             ( "cells_wall_seconds",
               Json.Float
                 (Ncg_obs.Clock.ns_to_s (Experiment.sweep_wall_ns results)) );
             ("counters_total", Metrics.to_json (Experiment.sweep_counters results));
             ( "histograms_total",
               Ncg_obs.Histogram.to_json (Experiment.sweep_histograms results) );
             ("gc_total", Ncg_obs.Gc_stats.to_json (Experiment.sweep_gc results));
           ]
          @ store_fields
          @ [
              ( "cells",
                Json.List
                  (List.map (Experiment.cell_json ~graph_class ~n ~p ~trials) results)
              );
            ])
      in
      try
        Json.to_file path doc;
        Printf.eprintf "telemetry written to %s\n%!" path
      with Sys_error msg ->
        Printf.eprintf "ncg_experiment: cannot write telemetry: %s\n%!" msg;
        exit 1));
  (match store with
  | None -> ()
  | Some s ->
      let st = Store.stats s in
      Printf.eprintf
          "store %s: %d hit%s, %d miss%s, %d inserted, %d live record%s%s%s\n%!"
          (Option.value store_dir ~default:"?")
          st.Store.hits
          (if st.Store.hits = 1 then "" else "s")
          st.Store.misses
          (if st.Store.misses = 1 then "" else "es")
          st.Store.inserts st.Store.live
          (if st.Store.live = 1 then "" else "s")
          (if st.Store.superseded > 0 then
             Printf.sprintf " (%d superseded)" st.Store.superseded
           else "")
          (if st.Store.heals > 0 then
             Printf.sprintf " (%d heal%s)" st.Store.heals
               (if st.Store.heals = 1 then "" else "s")
           else "");
      Store.close s);
  (* Structured failure report: one stderr line per quarantined cell,
     then a distinct exit code — after the store and telemetry are
     flushed. *)
  List.iter
    (fun (f : Experiment.cell_failure) ->
      Printf.eprintf
        "QUARANTINED cell alpha=%g k=%d (index %d, seed %d): %s: %s\n%!"
        f.Experiment.cell.Experiment.alpha f.Experiment.cell.Experiment.k
        f.Experiment.index f.Experiment.cell_seed
        (Ncg_fault.Executor.kind_to_string f.Experiment.kind)
        f.Experiment.exn_text)
    failures;
  match interrupted with
  | Some s ->
      Printf.eprintf
        "ncg_experiment: interrupted by signal %d (store/telemetry \
         flushed)\n%!"
        s;
      exit (128 + s)
  | None ->
      if failures <> [] then begin
        Printf.eprintf "ncg_experiment: %d of %d cells quarantined\n%!"
          (List.length failures) (List.length outcomes);
        exit 3
      end

let alphas =
  Arg.(value & opt (list float) [] & info [ "alphas" ] ~docv:"LIST" ~doc:"Alpha grid.")

let ks = Arg.(value & opt (list int) [] & info [ "ks" ] ~docv:"LIST" ~doc:"View radius grid.")
let trials = Arg.(value & opt int 5 & info [ "trials" ] ~docv:"T" ~doc:"Seeds per cell.")
let domains =
  Arg.(value & opt int 1 & info [ "domains" ] ~docv:"D"
         ~doc:"Domains to fan sweep cells over; output is identical for any value.")

let store_dir =
  Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR"
         ~doc:"Crash-safe result store: cells already present are served from \
               it, fresh cells are appended (fsync'd) as they finish. See \
               docs/STORE.md.")

let resume =
  Arg.(value & flag & info [ "resume" ]
         ~doc:"Require the --store directory to already exist — a guard \
               against silently starting from scratch on a mistyped path.")

let only_cell =
  Arg.(value & opt (some string) None & info [ "only-cell" ] ~docv:"ALPHA:K"
         ~doc:"Run the single cell (ALPHA, K) in place of the grid. Its \
               seeds depend on --seed, ALPHA and K only, so the row (or \
               quarantine) is the one any sweep containing the cell \
               prints.")

let telemetry =
  Arg.(value & opt (some string) None & info [ "telemetry" ] ~docv:"FILE"
         ~doc:"Write per-cell wall times, counters, histograms, GC deltas and \
               span trees as JSON.")

let quiet =
  Arg.(value & flag & info [ "quiet" ]
         ~doc:"Suppress the live progress line on stderr (it is also \
               auto-suppressed whenever stderr is not an interactive TTY).")

let no_probes =
  Arg.(value & flag & info [ "no-probes" ]
         ~doc:"Skip the round-level convergence probes of each cell's \
               exemplar trial. The CSV is byte-identical either way; only \
               the telemetry/store payloads shrink.")

let cell_deadline_ms =
  Arg.(value & opt float 0. & info [ "cell-deadline-ms" ] ~docv:"MS"
         ~doc:"Wall-clock deadline per cell (0 = none).")

let cmd =
  let doc = "grid experiments over (alpha, k) printing CSV series" in
  Cmd.v
    (Cmd.info "ncg_experiment" ~doc)
    Term.(const run $ Spec_cli.spec $ alphas $ ks $ trials $ domains $ store_dir
          $ resume $ only_cell $ telemetry $ quiet $ no_probes $ cell_deadline_ms)

let () = exit (Cmd.eval cmd)
