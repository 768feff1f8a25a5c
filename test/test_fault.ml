(* Tests for the fault plane (Ncg_fault): plan parsing, deterministic
   trigger semantics under arming, cooperative cancellation, the
   supervised executor, and the supervised sweep's
   quarantine-and-resume behaviour. *)

module Inject = Ncg_fault.Inject
module Cancel = Ncg_fault.Cancel
module Executor = Ncg_fault.Executor
module Experiment = Ncg.Experiment
module Dynamics = Ncg.Dynamics
module Store = Ncg_store.Store

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* Every test must leave the process clean: no plan installed, calling
   domain disarmed, shutdown flag clear. *)
let hermetic f =
  Fun.protect
    ~finally:(fun () ->
      Inject.clear ();
      Inject.disarm ();
      Cancel.reset_shutdown ())
    f

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

(* --- Plan parsing --------------------------------------------------------- *)

let test_parse_plan () =
  (match Inject.parse_plan ~seed:3 "sweep.cell=raise" with
  | Ok
      {
        seed;
        rules =
          [
            { site; action = Inject.Raise; trigger = Inject.Always };
          ];
      } ->
      check_int "seed" 3 seed;
      check_string "site" "sweep.cell" site
  | Ok _ -> Alcotest.fail "unexpected parse"
  | Error e -> Alcotest.fail e);
  (match
     Inject.parse_plan ~seed:0
       "bfs.traverse=delay:2.5@every:10,record_log.append=short:8@nth:2,\
        best_response.compute=raise@p:0.25"
   with
  | Ok { rules = [ r1; r2; r3 ]; _ } ->
      check_bool "delay" true (r1.Inject.action = Inject.Delay_ns 2_500_000L);
      check_bool "every" true (r1.Inject.trigger = Inject.Every 10);
      check_bool "short" true (r2.Inject.action = Inject.Short_write 8);
      check_bool "nth" true (r2.Inject.trigger = Inject.Nth 2);
      check_bool "prob" true (r3.Inject.trigger = Inject.Prob 0.25)
  | Ok _ -> Alcotest.fail "unexpected parse"
  | Error e -> Alcotest.fail e);
  let bad spec =
    match Inject.parse_plan ~seed:0 spec with
    | Ok _ -> Alcotest.failf "accepted %S" spec
    | Error _ -> ()
  in
  bad "no.such.site=raise";
  (* Sites of the retired sweep daemon: an old daemon fault plan must be
     rejected, not silently arm nothing. *)
  List.iter
    (fun spec ->
      match Inject.parse_plan ~seed:0 spec with
      | Ok _ -> Alcotest.failf "accepted %S" spec
      | Error e ->
          check_bool (spec ^ ": unknown fault site") true
            (String.starts_with
               ~prefix:(Printf.sprintf "%S: unknown fault site" spec)
               e))
    [ "queue.lease=raise"; "service.accept=raise@p:0.5" ];
  bad "sweep.cell=explode";
  bad "sweep.cell=raise@sometimes";
  bad "sweep.cell=delay:x";
  bad "sweep.cell=short:-1";
  bad "sweep.cell=raise@p:1.5";
  bad "sweep.cell=raise@nth:0";
  bad "sweep.cell=raise@nth:1@every:2";
  (* The retired budget qualifier (it capped fires so that retries
     would pass; cells get one attempt now) must be rejected, not
     silently read as an unlimited rule. *)
  bad "sweep.cell=raise@budget:2";
  bad "sweep.cell=raise@p:0.5@budget:1";
  bad "sweep.cell";
  bad ""

let test_plan_to_string_roundtrip () =
  List.iter
    (fun spec ->
      match Inject.parse_plan ~seed:11 spec with
      | Error e -> Alcotest.fail e
      | Ok plan -> (
          check_string "round-trip" spec (Inject.plan_to_string plan);
          match Inject.parse_plan ~seed:11 (Inject.plan_to_string plan) with
          | Ok plan' -> check_bool "reparse" true (plan = plan')
          | Error e -> Alcotest.fail e))
    [
      "sweep.cell=raise";
      "bfs.traverse=delay:5@every:3";
      "record_log.append=short:4@nth:2";
      "best_response.compute=raise@p:0.5";
      "sweep.cell=raise,bfs.traverse=delay:1@nth:7";
    ]

(* --- Trigger semantics under arm/disarm ----------------------------------- *)

let install spec =
  match Inject.parse_plan ~seed:99 spec with
  | Ok plan -> Inject.install plan
  | Error e -> Alcotest.fail e

(* Hit [site] [n] times; return the (1-based) hit numbers that raised. *)
let firing_pattern site n =
  List.filter_map
    (fun i ->
      match Inject.hit site with
      | () -> None
      | exception Inject.Fault _ -> Some i)
    (List.init n (fun i -> i + 1))

let test_unarmed_never_fires () =
  hermetic (fun () ->
      install "sweep.cell=raise";
      (* Plan installed but this domain not armed: all no-ops. *)
      check_bool "not armed" false (Inject.armed ());
      check_int "no fires" 0 (List.length (firing_pattern Inject.sweep_cell 10)))

let test_trigger_always_nth_every () =
  hermetic (fun () ->
      install "sweep.cell=raise";
      Inject.arm ~scope:0;
      check_bool "armed" true (Inject.armed ());
      check_bool "always" true
        (firing_pattern Inject.sweep_cell 4 = [ 1; 2; 3; 4 ]);
      install "sweep.cell=raise@nth:3";
      Inject.arm ~scope:0;
      check_bool "nth:3" true (firing_pattern Inject.sweep_cell 8 = [ 3 ]);
      install "sweep.cell=raise@every:3";
      Inject.arm ~scope:0;
      check_bool "every:3" true (firing_pattern Inject.sweep_cell 9 = [ 3; 6; 9 ]))

let test_prob_deterministic_per_scope () =
  hermetic (fun () ->
      install "sweep.cell=raise@p:0.4";
      let pattern scope =
        Inject.arm ~scope;
        firing_pattern Inject.sweep_cell 64
      in
      let p0 = pattern 0 in
      check_bool "some fired" true (p0 <> []);
      check_bool "some passed" true (List.length p0 < 64);
      (* Re-arming the same scope resets the stream: same pattern. *)
      check_bool "rearm reproduces" true (pattern 0 = p0);
      (* A different scope draws an independent stream. *)
      check_bool "scopes independent" true (pattern 1 <> p0);
      check_bool "scope reproducible" true (pattern 1 = pattern 1))

let test_clear_keeps_armed_disarm_clears () =
  hermetic (fun () ->
      install "sweep.cell=raise";
      Inject.arm ~scope:5;
      Inject.clear ();
      (* Documented: already-armed domains stay armed until disarm/re-arm. *)
      check_bool "still fires" true (firing_pattern Inject.sweep_cell 1 = [ 1 ]);
      Inject.arm ~scope:5;
      (* Re-arm with no plan installed disarms. *)
      check_bool "disarmed by re-arm" false (Inject.armed ());
      check_int "no fires" 0 (List.length (firing_pattern Inject.sweep_cell 5)))

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
      done)

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
            Executor.map ~scope:Fun.id ~domains
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
        Executor.map ~scope:Fun.id ~domains:2
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
          ~scope:(List.nth failed)
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
      let out = Executor.map ~scope:Fun.id f 1 in
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
      let out = Executor.map ~scope:Fun.id ~deadline_ns:5_000_000L ~domains:2 f 4 in
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
      let out = Executor.map ~scope:Fun.id f 6 in
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

let test_executor_fault_plan_deterministic () =
  hermetic (fun () ->
      install "sweep.cell=raise@p:0.45";
      let f ~index:_ =
        Inject.hit Inject.sweep_cell;
        ()
      in
      let failures domains =
        let out = Executor.map ~scope:Fun.id ~domains f 32 in
        Array.to_list out
        |> List.filteri (fun _ o -> Result.is_error o)
        |> List.length
      in
      let outcome domains =
        Executor.map ~scope:Fun.id ~domains f 32
        |> Array.map Result.is_ok |> Array.to_list
      in
      let base = outcome 1 in
      check_bool "some quarantined" true (failures 1 > 0);
      check_bool "some survived" true (failures 1 < 32);
      check_bool "domains=2 identical" true (outcome 2 = base);
      check_bool "domains=4 identical" true (outcome 4 = base))

(* --- Supervised sweep ----------------------------------------------------- *)

let n_nodes = 12
let trials = 2
let sweep_seed = 2014
let cells = Experiment.grid ~alphas:[ 0.5; 1.0 ] ~ks:[ 2; 1000 ]
let make_initial ~seed = Experiment.initial_tree ~seed ~n:n_nodes

let make_config (c : Experiment.cell) =
  {
    (Dynamics.default_config ~alpha:c.Experiment.alpha ~k:c.Experiment.k) with
    Dynamics.solver = `Budgeted 2_000;
    collect_features = false;
  }

let run_supervised ?store ?store_context ?(cells = cells) ~domains () =
  Experiment.sweep_supervised ~domains ?store ?store_context
    ~make_initial ~make_config ~cells ~trials ~seed:sweep_seed ()

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
      install "sweep.cell=raise@p:0.5";
      let failure_indices outcomes =
        List.filter_map
          (fun o ->
            match o with
            | Ok _ -> None
            | Error (f : Experiment.cell_failure) -> Some f.Experiment.index)
          outcomes
      in
      let base = run_supervised ~domains:1 () in
      let failed = failure_indices base in
      check_bool "some quarantined" true (failed <> []);
      check_bool "some survived" true
        (List.length failed < List.length cells);
      (* Same plan, any domain count: identical failure vector, and every
         surviving cell identical to the clean run. *)
      List.iter
        (fun domains ->
          let out = run_supervised ~domains () in
          check_bool "failure vector stable" true
            (failure_indices out = failed);
          List.iteri
            (fun i o ->
              match o with
              | Ok r ->
                  check_bool "survivor matches clean" true
                    (same_cell (List.nth clean i) r)
              | Error _ -> check_bool "expected failure" true (List.mem i failed))
            out)
        [ 1; 2; 4 ])

let test_sweep_quarantine_then_resume () =
  hermetic (fun () ->
      with_temp_dir (fun dir ->
          let clean = clean_results () in
          let context = [ ("test", Ncg_obs.Json.String "fault-resume") ] in
          install "sweep.cell=raise@p:0.5";
          let failed =
            Store.with_dir dir (fun store ->
                run_supervised ~domains:2 ~store ~store_context:context ()
                |> Experiment.sweep_failures
                |> List.map (fun (f : Experiment.cell_failure) ->
                       f.Experiment.index))
          in
          check_bool "some quarantined" true (failed <> []);
          (* The fault is gone; a resume against the same store computes
             exactly the quarantined cells and returns the full grid. *)
          Inject.clear ();
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
      (* Seeds and fault scopes are keyed on the cell, so a cell's outcome
         under a plan does not depend on the grid it is swept in: a
         one-cell sweep (what ncg_experiment --only-cell runs) either
         prints the full sweep's row or quarantines with the same
         error. *)
      let grid = Experiment.grid ~alphas:[ 0.5; 1.0; 2.0 ] ~ks:[ 2; 3; 1000 ] in
      install "sweep.cell=raise@p:0.5";
      let outcome = function
        | Ok r ->
            Ok (Experiment.csv_row ~graph_class:"tree" ~n:n_nodes ~p:0. ~trials r)
        | Error (f : Experiment.cell_failure) ->
            Error (f.Experiment.kind, f.Experiment.exn_text)
      in
      let full =
        List.map outcome (run_supervised ~cells:grid ~domains:2 ())
      in
      check_bool "some quarantined" true (List.exists Result.is_error full);
      check_bool "some survived" true (List.exists Result.is_ok full);
      List.iter2
        (fun (cell : Experiment.cell) expected ->
          match run_supervised ~cells:[ cell ] ~domains:1 () with
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
      (* Feasible and solvable when nothing is armed... *)
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
      ( "plan",
        [
          Alcotest.test_case "parse" `Quick test_parse_plan;
          Alcotest.test_case "to_string round-trip" `Quick
            test_plan_to_string_roundtrip;
        ] );
      ( "solver",
        [ Alcotest.test_case "cancellation" `Quick test_solver_cancel ] );
      ( "triggers",
        [
          Alcotest.test_case "unarmed never fires" `Quick test_unarmed_never_fires;
          Alcotest.test_case "always/nth/every" `Quick
            test_trigger_always_nth_every;
          Alcotest.test_case "prob deterministic per scope" `Quick
            test_prob_deterministic_per_scope;
          Alcotest.test_case "clear vs disarm" `Quick
            test_clear_keeps_armed_disarm_clears;
        ] );
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
          Alcotest.test_case "fault plan deterministic" `Quick
            test_executor_fault_plan_deterministic;
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
