(* End-to-end checks of the built binaries, run as child processes on a
   9-cell tree grid: a stored ncg_experiment sweep killed mid-run resumes
   to the uninterrupted CSV, sweeps under a small --move-budget quarantine
   exactly the reported cells and resume to the same outcome, ncg_trace
   record runs trial 0 of a cell as the one-trial sweep does (same row
   figures, a timeout exactly when the sweep quarantines) and verify
   certifies it and rejects bad files, ncg_report's telemetry report
   reads every cell of the telemetry, the bench gate passes the smoke
   grid's telemetry against bench/BASELINE.json and fails a lowered
   counter, and retired flags and bad option values are usage errors. *)

module Json = Ncg_obs.Json

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* The binaries sit next to this test in the build tree: dune builds
   them first (see the test's deps). *)
let built name =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat Filename.parent_dir_name ("bin/" ^ name ^ ".exe"))

let exe = built "ncg_experiment"

let grid_of ~n =
  [
    "--class"; "tree"; "-n"; string_of_int n; "--alphas"; "0.5,1,2"; "--ks";
    "2,3,1000"; "--trials"; "4"; "--seed"; "2014"; "--quiet";
  ]

let grid = grid_of ~n:30

let cells = 9

let with_temp_dir f =
  let dir = Filename.temp_file "ncg_cli_test" "" in
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

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Start [prog args] (ncg_experiment by default) with stdout and stderr
   redirected to files. *)
let spawn ?(prog = exe) ~out ~err args =
  let fd path = Unix.openfile path [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let o = fd out and e = fd err in
  Fun.protect
    ~finally:(fun () ->
      Unix.close o;
      Unix.close e)
    (fun () -> Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin o e)

(* Run [prog args] to completion; returns its exit code. *)
let run ?prog ~out ~err args =
  match Unix.waitpid [] (spawn ?prog ~out ~err args) with
  | _, WEXITED code -> code
  | _, (WSIGNALED s | WSTOPPED s) ->
      Alcotest.failf "child died of signal %d; stderr:\n%s" s (read_file err)

let run_ok ?prog ~out ~err args =
  let code = run ?prog ~out ~err args in
  if code <> 0 then
    Alcotest.failf "child exited %d; stderr:\n%s" code (read_file err)

(* The uninterrupted CSV under default limits, which every other run is
   held to. *)
let clean_csv ?(grid = grid) dir =
  let out = Filename.concat dir "clean.csv" in
  run_ok ~out ~err:(Filename.concat dir "clean.err") (grid @ [ "--domains"; "2" ]);
  read_file out

(* (hits, misses) from the "store DIR: H hits, M misses, ..." line. *)
let store_counts err =
  let text = read_file err in
  match
    List.find_opt
      (String.starts_with ~prefix:"store ")
      (String.split_on_char '\n' text)
  with
  | None -> Alcotest.failf "no store summary on stderr:\n%s" text
  | Some line -> (
      match String.rindex_opt line ':' with
      | None -> Alcotest.failf "unparseable store summary %S" line
      | Some i ->
          let rest = String.sub line (i + 1) (String.length line - i - 1) in
          Scanf.sscanf rest " %d %s %d" (fun hits _ misses -> (hits, misses)))

let lines s = List.filter (fun l -> l <> "") (String.split_on_char '\n' s)

(* --- Kill mid-run, resume ------------------------------------------------ *)

let test_kill_resume () =
  (* At n = 60 the grid takes about half a second on one domain (n = 30
     takes 0.08 s), so the sweep is still running when the first record
     lands. *)
  let grid = grid_of ~n:60 in
  with_temp_dir (fun dir ->
      let path = Filename.concat dir in
      let clean = clean_csv ~grid dir in
      let store = path "store" in
      let pid =
        spawn ~out:(path "partial.csv") ~err:(path "partial.err")
          (grid @ [ "--domains"; "1"; "--store"; store ])
      in
      let log = Filename.concat store "records.log" in
      let size () = try (Unix.stat log).st_size with Unix.Unix_error _ -> 0 in
      (* Poll every 10 ms, for at most a minute. *)
      let polls = ref 0 in
      while size () <= 8 && !polls < 6000 do
        Unix.sleepf 0.01;
        incr polls
      done;
      Unix.kill pid Sys.sigkill;
      (match Unix.waitpid [] pid with
      | _, WSIGNALED s when s = Sys.sigkill -> ()
      | _, WEXITED code ->
          Alcotest.failf "sweep finished (exit %d) before it was killed" code
      | _ -> Alcotest.fail "sweep stopped some other way");
      check_bool "a record was appended before the kill" true (size () > 8);
      (* Resume over a different fan-out: the stored cells are hits, the
         rest recompute, and the CSV is the uninterrupted one. *)
      run_ok ~out:(path "resumed.csv") ~err:(path "resumed.err")
        (grid @ [ "--domains"; "4"; "--store"; store; "--resume" ]);
      check_string "resumed CSV = uninterrupted" clean (read_file (path "resumed.csv"));
      let hits, misses = store_counts (path "resumed.err") in
      check_bool "resume served at least one stored cell" true (hits >= 1);
      check_bool "resume recomputed at least one cell" true (misses >= 1);
      check_int "hits + misses = cells" cells (hits + misses);
      (* Third run: everything is stored. *)
      run_ok ~out:(path "cached.csv") ~err:(path "cached.err")
        (grid @ [ "--domains"; "2"; "--store"; store; "--resume" ]);
      check_string "cached CSV = uninterrupted" clean (read_file (path "cached.csv"));
      check_bool "9 hits, 0 misses" true
        (store_counts (path "cached.err") = (cells, 0)))

(* --- Sweeps under a small move budget ----------------------------------- *)

(* (index, csv_row_prefix) of every quarantined cell in a telemetry file,
   after checking the report agrees with itself. *)
let failures telemetry =
  match
    Result.bind (Json.of_file telemetry)
      (Json.decode ~what:"budget telemetry" (fun j ->
           Json.schema Ncg_obs.Schema.experiment_telemetry j;
           let failed = Json.field "failed_cells" Json.int j in
           let list =
             Json.field "sweep.failures"
               (Json.list (fun f ->
                    let kind = Json.field "kind" Json.string f in
                    if kind <> "timeout" then Json.fail "kind %S, not timeout" kind;
                    ignore (Json.field "error" Json.string f);
                    ( Json.field "index" Json.int f,
                      Json.field "csv_row_prefix" Json.string f )))
               j
           in
           if List.length list <> failed then
             Json.fail "failed_cells %d but %d failures" failed (List.length list);
           list))
  with
  | Ok l -> l
  | Error e -> Alcotest.failf "%s: %s" telemetry e

let quarantined_lines err =
  List.length
    (List.filter (String.starts_with ~prefix:"QUARANTINED") (lines (read_file err)))

(* A move budget counts search checkpoints, not time, so the cells it
   times out are the same on every run and every --domains. The
   expected counts follow the engine's checkpoint counts
   (dynamics.move_steps), which the bench gate pins too. *)
let test_move_budget (budget, expected) () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir in
      let clean = clean_csv dir in
      let budgeted ~domains ~store ~resume ~tag =
        let code =
          run ~out:(path (tag ^ ".csv")) ~err:(path (tag ^ ".err"))
            (grid
            @ [
                "--domains"; string_of_int domains; "--store"; path store;
                "--move-budget"; string_of_int budget;
                "--telemetry"; path (tag ^ ".json");
              ]
            @ if resume then [ "--resume" ] else [])
        in
        check_int (tag ^ ": exit code") (if expected > 0 then 3 else 0) code;
        let fs = failures (path (tag ^ ".json")) in
        check_int (tag ^ ": one QUARANTINED line per failure") (List.length fs)
          (quarantined_lines (path (tag ^ ".err")));
        fs
      in
      let fs = budgeted ~domains:1 ~store:"store" ~resume:false ~tag:"budget1" in
      check_int "quarantined cells" expected (List.length fs);
      (* The surviving rows are the clean run's rows, byte for byte. *)
      let survivors =
        List.filter
          (fun row ->
            not (List.exists (fun (_, p) -> String.starts_with ~prefix:p row) fs))
          (lines clean)
      in
      Alcotest.(check (list string))
        "clean CSV minus quarantined rows = budgeted CSV" survivors
        (lines (read_file (path "budget1.csv")));
      (* Same budget, other fan-out, fresh store: same failure vector. *)
      let fs4 = budgeted ~domains:4 ~store:"store4" ~resume:false ~tag:"budget4" in
      Alcotest.(check (list int))
        "failure indices at --domains 1 and 4" (List.map fst fs) (List.map fst fs4);
      check_string "budgeted CSVs agree"
        (read_file (path "budget1.csv"))
        (read_file (path "budget4.csv"));
      (* The move budget is part of the store's cache key, so a resume
         under the same budget serves the survivors and recomputes the
         quarantined cells, which time out again. *)
      let fs_resumed =
        budgeted ~domains:2 ~store:"store" ~resume:true ~tag:"resumed"
      in
      Alcotest.(check (list int))
        "resume quarantines the same cells" (List.map fst fs) (List.map fst fs_resumed);
      check_string "resumed CSV = budgeted CSV"
        (read_file (path "budget1.csv"))
        (read_file (path "resumed.csv"));
      check_bool "resume hits the survivors, misses the quarantined" true
        (store_counts (path "resumed.err") = (cells - expected, expected)))

(* (move budget, cells of the 9-cell grid it quarantines) *)
let budgets = [ (20, 7); (30, 3); (50, 3); (80, 0) ]

(* --- One trajectory: ncg_trace --------------------------------------------- *)

let trace = built "ncg_trace"

(* The spec flags of [grid], which ncg_trace record shares with
   ncg_experiment. *)
let spec_flags = [ "--class"; "tree"; "-n"; "30"; "--seed"; "2014" ]

let grid_cells =
  [ "0.5:2"; "0.5:3"; "0.5:1000"; "1:2"; "1:3"; "1:1000"; "2:2"; "2:3"; "2:1000" ]

(* The one-trial sweep of [cell] (its CSV in [dir]/cell.csv) and
   record --trial 0 of it (its stdout in [dir]/record.out, its files
   under [dir]/t): their exit codes. *)
let sweep_and_record dir ?(extra = []) cell =
  let path = Filename.concat dir in
  let swept =
    run ~out:(path "cell.csv") ~err:(path "cell.err")
      (spec_flags @ extra @ [ "--trials"; "1"; "--only-cell"; cell; "--quiet" ])
  in
  let recorded =
    run ~prog:trace ~out:(path "record.out") ~err:(path "record.err")
      ([ "record" ] @ spec_flags @ extra
      @ [ "--only-cell"; cell; "--trial"; "0"; "--prefix"; path "t" ])
  in
  (swept, recorded)

(* Under one small move budget, record --trial 0 times out (exit 3)
   exactly when the one-trial --only-cell sweep quarantines the cell:
   both count the same checkpoints of the same trajectory. *)
let test_record_timeout_iff_quarantine () =
  with_temp_dir (fun dir ->
      let codes =
        List.map
          (fun cell ->
            let swept, recorded =
              sweep_and_record dir ~extra:[ "--move-budget"; "20" ] cell
            in
            check_int (cell ^ ": record exits as the sweep does") swept recorded;
            if recorded = 3 then
              check_bool (cell ^ ": the timeout is reported") true
                (List.exists
                   (String.starts_with ~prefix:"ncg_trace: a player move timed out")
                   (lines (read_file (Filename.concat dir "record.err"))));
            swept)
          grid_cells
      in
      check_bool "some cells time out" true (List.mem 3 codes);
      check_bool "some cells finish" true (List.mem 0 codes))

(* The G(100, 0.1) start that ncg_sim, the single-trajectory tool
   ncg_trace record replaced, ran into its move budget with (the case
   keeps that name): under --move-budget 100 record reports the timed-out
   move and exits 3 instead of dying of an uncaught exception. *)
let test_sim_move_timeout () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir in
      let code =
        run ~prog:trace ~out:(path "record.out") ~err:(path "record.err")
          [
            "record"; "--class"; "gnp"; "-p"; "0.1"; "-n"; "100"; "--seed"; "1";
            "--move-budget"; "100"; "--only-cell"; "0.2:5"; "--prefix"; path "t";
          ]
      in
      check_int "exit code 3" 3 code;
      check_bool "the timeout is reported" true
        (List.exists
           (String.starts_with ~prefix:"ncg_trace: a player move timed out")
           (lines (read_file (path "record.err")))))

(* The value in column [name] of the first row under a CSV header. *)
let column name = function
  | header :: row :: _ -> (
      let fields =
        List.combine (String.split_on_char ',' header) (String.split_on_char ',' row)
      in
      match List.assoc_opt name fields with
      | Some v -> float_of_string v
      | None -> Alcotest.failf "no column %S" name)
  | _ -> Alcotest.fail "no CSV row"

(* record --trial 0 of a cell is the trajectory behind the one-trial
   sweep's row: same rounds, final diameter, social cost and quality;
   verify then replays it and certifies it. *)
let test_record_is_sweep_trial () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir in
      List.iter
        (fun cell ->
          check_bool (cell ^ ": both exit 0") true
            (sweep_and_record dir cell = (0, 0));
          let row = lines (read_file (path "cell.csv")) in
          let comments, features =
            List.partition
              (String.starts_with ~prefix:"#")
              (lines (read_file (path "record.out")))
          in
          let comment tag =
            let prefix = "# " ^ tag ^ ": " in
            match List.find_opt (String.starts_with ~prefix) comments with
            | Some l ->
                let cut = String.length prefix in
                String.sub l cut (String.length l - cut)
            | None -> Alcotest.failf "%s: no # %s line" cell tag
          in
          (* The header and the last round, whose features are the final
             profile's. *)
          let final = [ List.hd features; List.hd (List.rev features) ] in
          let close ~tol what a b =
            check_bool
              (Printf.sprintf "%s: %s %g = %g" cell what a b)
              true
              (abs_float (a -. b) <= tol)
          in
          close ~tol:0. "rounds"
            (Scanf.sscanf (comment "outcome") "converged after %d" float_of_int)
            (column "rounds_mean" row);
          close ~tol:0. "final diameter" (column "diameter" final)
            (column "diameter_mean" row);
          close ~tol:0.0051 "social cost" (column "social_cost" final)
            (column "social_cost_mean" row);
          close ~tol:0.00051 "quality"
            (float_of_string (comment "quality"))
            (column "quality_mean" row);
          run_ok ~prog:trace ~out:(path "verify.out") ~err:(path "verify.err")
            [ "verify"; "--prefix"; path "t"; "--only-cell"; cell ])
        [ "2:3"; "0.5:1000" ])

(* A missing, truncated or edited file is reported as
   "ncg_trace: PATH: REASON" with exit 1, not an uncaught exception. *)
let test_verify_bad_files () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir in
      check_bool "recorded" true (sweep_and_record dir "2:3" = (0, 0));
      let header, moves =
        match lines (read_file (path "t.trace")) with
        | header :: (_ :: _ as moves) -> (header, moves)
        | _ -> Alcotest.fail "the recorded trace has no moves"
      in
      let first = List.hd moves in
      let with_trace name move_lines =
        Ncg_obs.Atomic_file.write
          (path (name ^ ".initial"))
          (read_file (path "t.initial"));
        Ncg_obs.Atomic_file.write (path (name ^ ".trace"))
          (String.concat "\n" (header :: move_lines) ^ "\n")
      in
      (* Cut inside the first move's "after" list. *)
      with_trace "truncated" [ String.sub first 0 (String.rindex first '|') ];
      (* The first move's "before" list replaced by its "after" list. *)
      (match String.split_on_char '|' first with
      | [ head; _; after ] ->
          with_trace "edited" (String.concat "|" [ head; after; after ] :: List.tl moves)
      | _ -> Alcotest.failf "unexpected move line %S" first);
      List.iter
        (fun (name, file) ->
          let code =
            run ~prog:trace ~out:(path "verify.out") ~err:(path "verify.err")
              [ "verify"; "--prefix"; path name; "--only-cell"; "2:3" ]
          in
          check_int (name ^ ": exit 1") 1 code;
          check_bool (name ^ ": the error names " ^ file) true
            (List.exists
               (String.starts_with ~prefix:(Printf.sprintf "ncg_trace: %s: " (path file)))
               (lines (read_file (path "verify.err")))))
        [
          ("missing", "missing.initial");
          ("truncated", "truncated.trace");
          ("edited", "edited.trace");
        ])

(* --- Report of the sweep telemetry ------------------------------------------ *)

(* The rows of the first table whose header starts with [header], split
   into trimmed cells. *)
let table_rows ~header report =
  let rec skip_to_header = function
    | l :: rest when String.starts_with ~prefix:header l -> rows rest
    | _ :: rest -> skip_to_header rest
    | [] -> Alcotest.failf "no %S table in the report" header
  and rows = function
    | sep :: rest when String.starts_with ~prefix:"| ---" sep -> rows rest
    | l :: rest when String.starts_with ~prefix:"|" l ->
        let cols = String.split_on_char '|' l in
        List.map String.trim (List.filteri (fun i _ -> i > 0 && i < List.length cols - 1) cols)
        :: rows rest
    | _ -> []
  in
  skip_to_header (String.split_on_char '\n' report)

let test_report_reads_every_cell () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir in
      let telemetry = path "telemetry.json" in
      run_ok ~out:(path "sweep.csv") ~err:(path "sweep.err")
        (grid @ [ "--telemetry"; telemetry ]);
      run_ok ~prog:(built "ncg_report") ~out:(path "report.md") ~err:(path "report.err")
        [ "--telemetry"; telemetry; "--compare"; telemetry ];
      let report = read_file (path "report.md") in
      let rows = table_rows ~header:"| alpha | k | wall s |" report in
      check_int "one summary row per cell" cells (List.length rows);
      List.iter
        (function
          | alpha :: k :: _wall :: rounds :: quality :: converged :: _ ->
              List.iter
                (fun (column, v) ->
                  check_bool
                    (Printf.sprintf "alpha=%s k=%s: %s %S is numeric" alpha k column v)
                    true
                    (Option.is_some (float_of_string_opt v)))
                [ ("rounds", rounds); ("quality", quality); ("converged", converged) ]
          | row -> Alcotest.failf "short summary row: %s" (String.concat " | " row))
        rows;
      let has_line prefix =
        List.exists (String.starts_with ~prefix) (String.split_on_char '\n' report)
      in
      check_bool "no cell cut off by the node budget" true
        (has_line (Printf.sprintf "Exactness: 0 of %d cells" cells));
      (match
         List.find_opt
           (fun row -> List.hd row = "best_response.latency")
           (table_rows ~header:"| histogram | count |" report)
       with
      | Some (_ :: count :: _) ->
          check_bool "best_response.latency has samples" true (int_of_string count > 0)
      | _ -> Alcotest.fail "no best_response.latency row in the latency table");
      check_int "the file compared with itself matches every cell" cells
        (List.length (table_rows ~header:"| alpha | k | wall A |" report));
      check_bool "no unmatched cells" false (has_line "no (alpha, k) match");
      check_int "a CSV is not telemetry: exit 1" 1
        (run ~prog:(built "ncg_report") ~out:(path "bad.md") ~err:(path "bad.err")
           [ "--telemetry"; path "sweep.csv" ]))

(* --- Bench gate ----------------------------------------------------------- *)

(* The committed baseline, which dune copies next to the build tree (see
   the test's deps). *)
let baseline =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat Filename.parent_dir_name "bench/BASELINE.json")

(* [j] with the value at [path] replaced by [f] of it; "0" steps into
   the head of a list. *)
let rec edit path f j =
  match (path, j) with
  | [], v -> f v
  | "0" :: rest, Json.List (x :: xs) -> Json.List (edit rest f x :: xs)
  | key :: rest, Json.Obj fields ->
      if not (List.mem_assoc key fields) then Alcotest.failf "no field %S" key;
      Json.Obj (List.map (fun (k, v) -> (k, if k = key then edit rest f v else v)) fields)
  | key :: _, _ -> Alcotest.failf "cannot step into %S" key

let test_bench_gate () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir in
      let telemetry = path "experiment.json" in
      (* The smoke grid behind the baseline's "experiment" section. *)
      run_ok ~out:(path "smoke.csv") ~err:(path "smoke.err")
        [
          "-n"; "20"; "--trials"; "2"; "--alphas"; "0.5,2"; "--ks"; "2,1000";
          "--quiet"; "--telemetry"; telemetry;
        ];
      let gate ~tag args =
        run ~prog:(built "ncg_bench_diff") ~out:(path (tag ^ ".out"))
          ~err:(path (tag ^ ".err")) args
      in
      let fail_lines tag =
        List.filter
          (String.starts_with ~prefix:"FAIL")
          (lines (read_file (path (tag ^ ".out"))))
      in
      check_int "committed baseline: exit 0" 0
        (gate ~tag:"clean" [ "--baseline"; baseline; "experiment=" ^ telemetry ]);
      Alcotest.(check (list string))
        "committed baseline: no FAIL" [] (fail_lines "clean");
      check_bool "every baseline cell checked" true
        (List.mem "section experiment: 4 baseline cells checked"
           (lines (read_file (path "clean.out"))));
      (* One counter of one cell lowered by 1 reads as a regression. *)
      let lowered = path "lowered.json" in
      (match Json.of_file baseline with
      | Error e -> Alcotest.failf "%s: %s" baseline e
      | Ok j ->
          Json.to_file lowered
            (edit
               [ "sections"; "experiment"; "cells"; "0"; "counters"; "bfs.calls" ]
               (function
                 | Json.Float v -> Json.Float (v -. 1.)
                 | Json.Int v -> Json.Int (v - 1)
                 | _ -> Alcotest.fail "bfs.calls is not a number")
               j));
      check_int "lowered counter: exit 1" 1
        (gate ~tag:"lowered" [ "--baseline"; lowered; "experiment=" ^ telemetry ]);
      (match fail_lines "lowered" with
      | [ line ] ->
          check_bool ("the FAIL names the cell: " ^ line) true
            (String.starts_with
               ~prefix:"FAIL [experiment] alpha=0.5 k=2: counter bfs.calls" line)
      | ls -> Alcotest.failf "expected one FAIL line, got %d" (List.length ls));
      check_int "--history is a usage error" 124
        (gate ~tag:"history" [ "--history"; "x" ]))

(* --- Retired flags and bad option values ------------------------------------ *)

let test_retired_flags () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir in
      let record = [ "record"; "--only-cell"; "2:3"; "--prefix"; path "t" ] in
      let report = [ "--telemetry"; path "telemetry.json" ] in
      List.iter
        (fun (prog, args) ->
          let code =
            run ~prog:(built prog) ~out:(path "out.csv") ~err:(path "err.txt") args
          in
          (* cmdliner's exit code for a command-line parse error. *)
          check_int (String.concat " " (prog :: args) ^ " is a usage error") 124 code)
        (List.map
           (fun args -> ("ncg_experiment", grid @ args))
           [
             [ "--max-retries"; "1" ];
             [ "--retry-backoff-ms"; "5" ];
             [ "--no-cache" ];
             [ "--events"; "x" ];
             [ "--no-progress" ];
             [ "--trace-out"; "x" ];
             [ "--fault-plan"; "x" ];
             [ "--fault-seed"; "1" ];
           ]
        @ List.map
            (fun args -> ("ncg_trace", record @ args))
            [
              [ "--alpha"; "2" ]; [ "-k"; "3" ]; [ "--variant"; "max" ];
              [ "--solver"; "exact" ];
            ]
        @ List.map
            (fun args -> ("ncg_report", report @ args))
            [ [ "--class"; "tree" ]; [ "-n"; "40" ]; [ "--variant"; "max" ] ]))

(* Bad values are usage errors, never an uncaught exception (exit 125)
   or a sweep that quarantines every cell (exit 3): cmdliner's parse
   errors exit 124, values the tool itself rejects (Sweep_spec.validate,
   --only-cell, ncg_certify's checks) exit 2. *)
let test_bad_values () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir in
      let record args =
        [ "record"; "--only-cell"; "2:3"; "--prefix"; path "t" ] @ args
      in
      List.iter
        (fun (prog, args, expected) ->
          let code = run ~prog:(built prog) ~out:(path "out") ~err:(path "err") args in
          check_int (String.concat " " (prog :: args) ^ " is a usage error") expected code)
        [
          ( "ncg_experiment",
            [ "--class"; "gnp"; "-p"; "2"; "-n"; "10"; "--alphas"; "1"; "--ks"; "2" ],
            2 );
          ( "ncg_experiment",
            [ "--class"; "gnp"; "-p"; "0"; "-n"; "10"; "--alphas"; "1"; "--ks"; "2" ],
            2 );
          ("ncg_trace", record [ "-n"; "0" ], 2);
          ("ncg_trace", record [ "--class"; "gnp"; "-p"; "0"; "-n"; "10" ], 2);
          ("ncg_trace", record [ "--class"; "cycle"; "-n"; "10" ], 2);
          ("ncg_trace", record [ "--trial=-1" ], 2);
          ("ncg_trace", [ "record"; "--only-cell"; "2"; "--prefix"; path "t" ], 2);
          ("ncg_trace", [ "record"; "--only-cell"; "2:0"; "--prefix"; path "t" ], 2);
          ("ncg_trace", [ "verify"; "--only-cell"; "x:3"; "--prefix"; path "t" ], 2);
          ("ncg_report", [], 124);
          ("ncg_bounds", [ "--game"; "foo" ], 124);
          ("ncg_bounds", [ "-n"; "0"; "--game"; "max" ], 2);
          ("ncg_bounds", [ "-n"; "100"; "--ks"; "0" ], 2);
          ("ncg_certify", [ "torus-sum"; "-k"; "3" ], 2);
          ("ncg_certify", [ "cycle"; "-n"; "2" ], 2);
          ("ncg_certify", [ "cycle"; "-k"; "0" ], 2);
          ("ncg_certify", [ "pg"; "-q"; "4" ], 2);
        ])

let () =
  Alcotest.run "ncg_experiment"
    [
      ("store", [ Alcotest.test_case "kill mid-run, resume" `Quick test_kill_resume ]);
      ( "fault",
        List.map
          (fun ((budget, _) as b) ->
            Alcotest.test_case
              (Printf.sprintf "--move-budget %d" budget)
              `Quick (test_move_budget b))
          budgets
        @ [
            Alcotest.test_case "ncg_sim move timeout exits 3" `Quick
              test_sim_move_timeout;
            Alcotest.test_case "record exits 3 iff the sweep quarantines" `Quick
              test_record_timeout_iff_quarantine;
          ] );
      ( "trace",
        [
          Alcotest.test_case "record = trial 0 of the sweep, verified" `Quick
            test_record_is_sweep_trial;
          Alcotest.test_case "verify rejects bad files" `Quick test_verify_bad_files;
        ] );
      ( "top",
        [
          Alcotest.test_case "post-hoc report reads every cell" `Quick
            test_report_reads_every_cell;
        ] );
      ( "gate",
        [ Alcotest.test_case "bench gate on the smoke grid" `Quick test_bench_gate ] );
      ( "flags",
        [
          Alcotest.test_case "retired flags rejected" `Quick test_retired_flags;
          Alcotest.test_case "bad option values rejected" `Quick test_bad_values;
        ] );
    ]
