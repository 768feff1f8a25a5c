(* Tests for the robustness layer (Ncg_fault): cooperative cancellation,
   the supervised executor, and the supervised sweep's
   quarantine-and-resume behaviour, driven by a real trigger: a move
   budget small enough to time some cells out. *)

module Cancel = Ncg_fault.Cancel
module Executor = Ncg_fault.Executor
module Experiment = Ncg.Experiment
module Dynamics = Ncg.Dynamics
module Store = Ncg_store.Store

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* Every test must leave the process clean: shutdown flag clear. *)
let hermetic f = Fun.protect ~finally:Cancel.reset_shutdown f

let with_temp_dir f =
  let dir = Filename.temp_file "ncg_fault_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
    end
    else Sys.remove p
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir) (fun () -> f dir)

(* --- Cancel --------------------------------------------------------------- *)

let test_step_budget () =
  hermetic (fun () ->
      (* Unlimited: any number of checkpoints. *)
      Cancel.with_step_budget 0 (fun () ->
          for _ = 1 to 100 do
            Cancel.checkpoint ()
          done);
      (* Budget n: exactly n checkpoints pass, the n+1-th raises. *)
      let ran = ref 0 in
      (match
         Cancel.with_step_budget 5 (fun () ->
             for _ = 1 to 100 do
               Cancel.checkpoint ();
               incr ran
             done)
       with
      | () -> Alcotest.fail "budget never tripped"
      | exception Cancel.Timed_out what ->
          check_string "what" "step budget exhausted" what);
      check_int "checkpoints before trip" 5 !ran;
      (* Budgets restore on exit: the enclosing scope is unlimited again. *)
      for _ = 1 to 50 do
        Cancel.checkpoint ()
      done;
      (* dynamics.move_steps, which a budget adds once on exit. *)
      let steps f =
        snd (Ncg_obs.Metrics.collect (fun () -> try f () with Cancel.Timed_out _ -> ()))
        |> List.assoc "dynamics.move_steps"
      in
      let checkpoints n () =
        for _ = 1 to n do
          Cancel.checkpoint ()
        done
      in
      check_int "n checkpoints, no trip" 7
        (steps (fun () -> Cancel.with_step_budget 10 (checkpoints 7)));
      check_int "the whole budget" 10
        (steps (fun () -> Cancel.with_step_budget 10 (checkpoints 10)));
      check_int "a trip counts one more" 6
        (steps (fun () -> Cancel.with_step_budget 5 (checkpoints 100)));
      check_int "unlimited counts nothing" 0
        (steps (fun () -> Cancel.with_step_budget 0 (checkpoints 100)));
      let flag = Atomic.make false in
      check_int "a watchdog raise counts nothing" 3
        (steps (fun () ->
             Cancel.with_control ~cancel:flag (fun () ->
                 Cancel.with_step_budget 10 (fun () ->
                     checkpoints 3 ();
                     Atomic.set flag true;
                     checkpoints 1 ()))));
      check_int "a deadline raise counts" 1
        (steps (fun () ->
             Cancel.with_control ~timeout_ns:0L (fun () ->
                 Unix.sleepf 0.001;
                 Cancel.with_step_budget 10 (checkpoints 3))));
      check_int "nested budgets count each checkpoint once" (2 + 4 + 3 + 1 + 5)
        (steps (fun () ->
             Cancel.with_step_budget 100 (fun () ->
                 checkpoints 2 ();
                 Cancel.with_step_budget 10 (checkpoints 4);
                 checkpoints 3 ();
                 Cancel.with_step_budget 0 (checkpoints 1);
                 Cancel.with_step_budget 4 (checkpoints 20))));
      (* An inner budget spends nothing of the outer one: the outer's 6
         steps go to 2 + 4 of its own checkpoints, and its 7th trips. *)
      check_int "an outer budget is not spent by inner ones" (4 + 7)
        (steps (fun () ->
             Cancel.with_step_budget 6 (fun () ->
                 checkpoints 2 ();
                 Cancel.with_step_budget 10 (checkpoints 4);
                 checkpoints 5 ()))))

let test_deadline_and_shutdown () =
  hermetic (fun () ->
      (match
         Cancel.with_control ~timeout_ns:1_000L (fun () ->
             let rec spin () =
               Cancel.checkpoint ();
               spin ()
             in
             spin ())
       with
      | () -> Alcotest.fail "deadline never tripped"
      | exception Cancel.Timed_out what -> check_string "what" "deadline" what);
      check_bool "no shutdown yet" true (Cancel.shutdown_requested () = None);
      Cancel.request_shutdown 2;
      (match Cancel.checkpoint () with
      | () -> Alcotest.fail "shutdown not observed"
      | exception Cancel.Interrupted s -> check_int "signal" 2 s);
      check_bool "recorded" true (Cancel.shutdown_requested () = Some 2);
      Cancel.reset_shutdown ();
      Cancel.checkpoint ())

(* --- Executor ------------------------------------------------------------- *)

let ok_exn = function
  | Ok v -> v
  | Error (f : Executor.failure) ->
      Alcotest.failf "task %d quarantined: %s" f.Executor.index f.Executor.exn_text

let test_executor_clean () =
  hermetic (fun () ->
      List.iter
        (fun domains ->
          let out =
            Executor.map ~domains
              (fun ~index -> index * index)
              10
          in
          check_int "length" 10 (Array.length out);
          Array.iteri
            (fun i o -> check_int "value" (i * i) (ok_exn o))
            out)
        [ 1; 2; 4 ])

let test_executor_retry_and_quarantine () =
  hermetic (fun () ->
      (* Task 3 fails on its first run only, task 7 always fails. The
         executor never retries: both are quarantined after one attempt
         and every other task still completes. Retrying is the caller's
         job, by mapping again over the quarantined indices (what a
         resumed sweep does): task 3 then recovers, task 7 does not. *)
      let runs = Array.init 10 (fun _ -> Atomic.make 0) in
      let f ~index =
        let run = Atomic.fetch_and_add runs.(index) 1 + 1 in
        if index = 3 && run = 1 then failwith "transient";
        if index = 7 then failwith "permanent";
        index
      in
      let quarantined = ref [] in
      let out =
        Executor.map ~domains:2
          ~on_quarantine:(fun fl ->
            quarantined := fl.Executor.index :: !quarantined)
          f 10
      in
      (match out.(7) with
      | Ok _ -> Alcotest.fail "task 7 should be quarantined"
      | Error f ->
          check_bool "kind" true (f.Executor.kind = Executor.Crashed);
          check_bool "text" true
            (String.length f.Executor.exn_text > 0
            && f.Executor.exn = Failure "permanent"));
      check_bool "task 3 quarantined" true (Result.is_error out.(3));
      List.iter
        (fun i -> if i <> 3 && i <> 7 then check_int "value" i (ok_exn out.(i)))
        (List.init 10 Fun.id);
      Array.iter (fun r -> check_int "one attempt per task" 1 (Atomic.get r)) runs;
      check_bool "quarantine reports" true
        (List.sort compare !quarantined = [ 3; 7 ]);
      let failed = [ 3; 7 ] in
      let again =
        Executor.map
          (fun ~index -> f ~index:(List.nth failed index))
          (List.length failed)
      in
      check_int "task 3 recovered" 3 (ok_exn again.(0));
      check_bool "task 7 still quarantined" true (Result.is_error again.(1));
      check_int "task 3 ran twice" 2 (Atomic.get runs.(3));
      check_int "task 7 ran twice" 2 (Atomic.get runs.(7)))

let test_executor_no_retry_by_default () =
  hermetic (fun () ->
      let attempts = Atomic.make 0 in
      let f ~index:_ =
        Atomic.incr attempts;
        failwith "boom"
      in
      let out = Executor.map f 1 in
      (match out.(0) with
      | Ok _ -> Alcotest.fail "should fail"
      | Error f -> check_bool "kind" true (f.Executor.kind = Executor.Crashed));
      check_int "ran once" 1 (Atomic.get attempts))

let test_executor_deadline () =
  hermetic (fun () ->
      let f ~index =
        if index = 1 then (
          let rec spin () =
            Cancel.checkpoint ();
            spin ()
          in
          spin ());
        index
      in
      let out = Executor.map ~deadline_ns:5_000_000L ~domains:2 f 4 in
      (match out.(1) with
      | Ok _ -> Alcotest.fail "spinner should time out"
      | Error f -> check_bool "kind" true (f.Executor.kind = Executor.Timeout));
      List.iter
        (fun i -> if i <> 1 then check_int "value" i (ok_exn out.(i)))
        [ 0; 2; 3 ])

let test_executor_shutdown_marks_unstarted () =
  hermetic (fun () ->
      (* Single domain: task 2 requests shutdown; everything after it is
         reported interrupted without having started. *)
      let f ~index =
        if index = 2 then Cancel.request_shutdown 15;
        Cancel.checkpoint ();
        index
      in
      let out = Executor.map f 6 in
      check_int "task 0 done" 0 (ok_exn out.(0));
      check_int "task 1 done" 1 (ok_exn out.(1));
      (match out.(2) with
      | Ok _ -> Alcotest.fail "task 2 should be interrupted"
      | Error f ->
          check_bool "kind" true (f.Executor.kind = Executor.Interrupted));
      List.iter
        (fun i ->
          match out.(i) with
          | Ok _ -> Alcotest.failf "task %d should not have started" i
          | Error f ->
              check_bool "kind" true (f.Executor.kind = Executor.Interrupted);
              check_string "not started" "not started: shutdown requested"
                f.Executor.exn_text)
        [ 3; 4; 5 ])

(* --- Supervised sweep ----------------------------------------------------- *)

let n_nodes = 12
let trials = 2
let sweep_seed = 2014
let cells = Experiment.grid ~alphas:[ 0.5; 1.0 ] ~ks:[ 2; 1000 ]
let make_initial ~seed = Experiment.initial_tree ~seed ~n:n_nodes

(* A move budget (search checkpoints per player move) that times out
   some cells of both grids below and not others (today 2 of the 4
   cells of [cells] and 6 of the 9 of the one-cell test's grid). Step
   counts do not depend on scheduling, so neither does which cells
   fail. *)
let tight_budget = 15

let make_config ?move_budget (c : Experiment.cell) =
  let config = Dynamics.default_config ~alpha:c.Experiment.alpha ~k:c.Experiment.k in
  {
    config with
    Dynamics.solver = `Budgeted 2_000;
    collect_features = false;
    move_budget = Option.value move_budget ~default:config.Dynamics.move_budget;
  }

let run_supervised ?move_budget ?store ?store_context ?(cells = cells) ~domains () =
  Experiment.sweep_supervised ~domains ?store ?store_context
    ~make_initial ~make_config:(make_config ?move_budget) ~cells ~trials
    ~seed:sweep_seed ()

let clean_results () =
  List.map
    (function
      | Ok (r : Experiment.cell_result) -> r
      | Error (f : Experiment.cell_failure) ->
          Alcotest.failf "clean sweep quarantined cell %d" f.Experiment.index)
    (run_supervised ~domains:1 ())

let same_cell (a : Experiment.cell_result) (b : Experiment.cell_result) =
  a.Experiment.runs = b.Experiment.runs
  && a.Experiment.counters = b.Experiment.counters
  && Ncg_obs.Histogram.counts_only a.Experiment.histograms
     = Ncg_obs.Histogram.counts_only b.Experiment.histograms

let test_sweep_quarantine_is_deterministic () =
  hermetic (fun () ->
      let clean = clean_results () in
      let failure_indices outcomes =
        List.filter_map
          (fun o ->
            match o with
            | Ok _ -> None
            | Error (f : Experiment.cell_failure) -> Some f.Experiment.index)
          outcomes
      in
      let base = run_supervised ~move_budget:tight_budget ~domains:1 () in
      let failed = failure_indices base in
      check_bool "some quarantined" true (failed <> []);
      check_bool "some survived" true
        (List.length failed < List.length cells);
      (* Same budget, any domain count: identical failure vector, every
         failure a timeout, and every surviving cell identical to the
         clean run. *)
      List.iter
        (fun domains ->
          let out = run_supervised ~move_budget:tight_budget ~domains () in
          check_bool "failure vector stable" true
            (failure_indices out = failed);
          List.iteri
            (fun i o ->
              match o with
              | Ok r ->
                  check_bool "survivor matches clean" true
                    (same_cell (List.nth clean i) r)
              | Error (f : Experiment.cell_failure) ->
                  check_bool "expected failure" true (List.mem i failed);
                  check_bool "a timeout" true (f.Experiment.kind = Executor.Timeout))
            out)
        [ 1; 2; 4 ])

let test_sweep_quarantine_then_resume () =
  hermetic (fun () ->
      with_temp_dir (fun dir ->
          let clean = clean_results () in
          let context = [ ("test", Ncg_obs.Json.String "fault-resume") ] in
          (* The test's own store context leaves the move budget out of
             the cache key, so the resume below can lift the budget and
             still hit the survivors. *)
          let failed =
            Store.with_dir dir (fun store ->
                run_supervised ~move_budget:tight_budget ~domains:2 ~store
                  ~store_context:context ()
                |> Experiment.sweep_failures
                |> List.map (fun (f : Experiment.cell_failure) ->
                       f.Experiment.index))
          in
          check_bool "some quarantined" true (failed <> []);
          (* The budget is lifted; a resume against the same store
             computes exactly the quarantined cells and returns the full
             grid. *)
          Store.with_dir dir (fun store ->
              let out =
                run_supervised ~domains:1 ~store ~store_context:context ()
              in
              let st = Store.stats store in
              check_int "hits are the survivors"
                (List.length cells - List.length failed)
                st.Store.hits;
              check_int "misses are the quarantined" (List.length failed)
                st.Store.misses;
              List.iter2
                (fun expected o ->
                  match o with
                  | Ok r -> check_bool "matches clean" true (same_cell expected r)
                  | Error (f : Experiment.cell_failure) ->
                      Alcotest.failf "resume left cell %d quarantined"
                        f.Experiment.index)
                clean out)))

let test_one_cell_sweep_reproduces_full_sweep () =
  hermetic (fun () ->
      (* Seeds are keyed on the cell, so a cell's outcome under a move
         budget does not depend on the grid it is swept in: a one-cell
         sweep (what ncg_experiment --only-cell runs) either prints the
         full sweep's row or quarantines with the same error. *)
      let grid = Experiment.grid ~alphas:[ 0.5; 1.0; 2.0 ] ~ks:[ 2; 3; 1000 ] in
      let run ~cells ~domains =
        run_supervised ~move_budget:tight_budget ~cells ~domains ()
      in
      let outcome = function
        | Ok r ->
            Ok (Experiment.csv_row ~graph_class:"tree" ~n:n_nodes ~p:0. ~trials r)
        | Error (f : Experiment.cell_failure) ->
            Error (f.Experiment.kind, f.Experiment.exn_text)
      in
      let full =
        List.map outcome (run ~cells:grid ~domains:2)
      in
      check_bool "some quarantined" true (List.exists Result.is_error full);
      check_bool "some survived" true (List.exists Result.is_ok full);
      List.iter2
        (fun (cell : Experiment.cell) expected ->
          match run ~cells:[ cell ] ~domains:1 with
          | [ one ] ->
              check_bool
                (Printf.sprintf "cell (%g,%d) reproduces" cell.Experiment.alpha
                   cell.Experiment.k)
                true
                (outcome one = expected)
          | _ -> Alcotest.fail "one-cell sweep returned a different length")
        grid full)

(* --- Cancellation inside the set-cover solver ------------------------------ *)

let test_solver_cancel () =
  hermetic (fun () ->
      let module Set_cover = Ncg_solver.Set_cover in
      let module Bitset = Ncg_util.Bitset in
      let universe = 16 in
      let sets =
        List.concat_map
          (fun i ->
            [
              [ i; (i + 1) mod universe; (i + 5) mod universe ];
              [ i; (i + 2) mod universe ];
            ])
          (List.init universe Fun.id)
      in
      let inst =
        {
          Set_cover.universe;
          sets = Array.of_list (List.map (Bitset.of_list universe) sets);
          pre_covered = None;
        }
      in
      (* Feasible and solvable without limits... *)
      (match Set_cover.solve inst with
      | Some _ -> ()
      | None -> Alcotest.fail "instance should be feasible");
      (* ...but a step budget trips a checkpoint inside the solver's own
         search loops, long before the node budget would. *)
      (match Cancel.with_step_budget 8 (fun () -> Set_cover.solve inst) with
      | _ -> Alcotest.fail "step budget never tripped"
      | exception Cancel.Timed_out what ->
          check_string "what" "step budget exhausted" what);
      (* And an (already expired) deadline cuts the solve off too, which
         is how --cell-deadline-ms reaches one oversized solve call. *)
      match Cancel.with_control ~timeout_ns:0L (fun () -> Set_cover.solve inst) with
      | _ -> Alcotest.fail "deadline never tripped"
      | exception Cancel.Timed_out what -> check_string "what" "deadline" what)

let () =
  Alcotest.run "ncg_fault"
    [
      ( "solver",
        [ Alcotest.test_case "cancellation" `Quick test_solver_cancel ] );
      ( "cancel",
        [
          Alcotest.test_case "step budget" `Quick test_step_budget;
          Alcotest.test_case "deadline + shutdown" `Quick
            test_deadline_and_shutdown;
        ] );
      ( "executor",
        [
          Alcotest.test_case "clean map" `Quick test_executor_clean;
          Alcotest.test_case "retry + quarantine" `Quick
            test_executor_retry_and_quarantine;
          Alcotest.test_case "no retry by default" `Quick
            test_executor_no_retry_by_default;
          Alcotest.test_case "deadline" `Quick test_executor_deadline;
          Alcotest.test_case "shutdown marks unstarted" `Quick
            test_executor_shutdown_marks_unstarted;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "deterministic quarantine" `Quick
            test_sweep_quarantine_is_deterministic;
          Alcotest.test_case "quarantine then resume" `Quick
            test_sweep_quarantine_then_resume;
          Alcotest.test_case "one-cell sweep reproduces full sweep" `Quick
            test_one_cell_sweep_reproduces_full_sweep;
        ] );
    ]
