(* Tests for the sweep service: protocol codecs and addresses, the
   persistent work queue's lease/requeue/reclaim semantics, and the
   scheduler — cross-client dedup (the property the daemon exists for:
   two clients submitting the same cell cost exactly one execution and
   read back byte-identical CSV rows), round-robin fairness, the
   heartbeat monitor, worker quarantine, and wire-level cancellation. *)

module Json = Ncg_obs.Json
module Protocol = Ncg_service.Protocol
module Scheduler = Ncg_service.Scheduler
module Work_queue = Ncg_store.Work_queue
module Store = Ncg_store.Store
module Sweep_spec = Ncg.Sweep_spec
module Experiment = Ncg.Experiment

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let with_temp_dir f =
  let dir = Filename.temp_file "ncg_service_test" "" in
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

(* A grid small enough to execute for real in a unit test. *)
let tiny_spec =
  {
    Sweep_spec.default with
    Sweep_spec.graph_class = "tree";
    n = 8;
    alphas = [ 1.0; 3.0 ];
    ks = [ 1 ];
    trials = 1;
    seed = 7;
    budget = 10_000;
    probes = false;
  }

(* --- Protocol ------------------------------------------------------------- *)

let test_parse_addr () =
  (match Protocol.parse_addr "unix:/tmp/x.sock" with
  | Ok (Protocol.Unix_sock p) -> check_string "unix path" "/tmp/x.sock" p
  | _ -> Alcotest.fail "unix addr");
  (match Protocol.parse_addr "some/relative.sock" with
  | Ok (Protocol.Unix_sock p) -> check_string "bare path" "some/relative.sock" p
  | _ -> Alcotest.fail "bare addr");
  (match Protocol.parse_addr "tcp:localhost:7214" with
  | Ok (Protocol.Tcp (h, p)) ->
      check_string "host" "localhost" h;
      check_int "port" 7214 p
  | _ -> Alcotest.fail "tcp addr");
  check_bool "bad port rejected" true
    (Result.is_error (Protocol.parse_addr "tcp:host:notaport"));
  check_bool "unknown scheme rejected" true
    (Result.is_error (Protocol.parse_addr "http:example.com:80"))

let roundtrip_request req =
  match Protocol.request_of_json (Protocol.request_to_json req) with
  | Ok r -> r
  | Error msg -> Alcotest.failf "request did not round-trip: %s" msg

let test_request_roundtrip () =
  (match roundtrip_request (Protocol.Hello { client = "c1"; worker = false }) with
  | Protocol.Hello { client; worker } ->
      check_string "hello client" "c1" client;
      check_bool "hello defaults to non-worker" false worker
  | _ -> Alcotest.fail "hello");
  (match roundtrip_request (Protocol.Hello { client = "w0"; worker = true }) with
  | Protocol.Hello { worker; _ } -> check_bool "hello worker flag survives" true worker
  | _ -> Alcotest.fail "hello worker");
  (match
     roundtrip_request
       (Protocol.Submit { spec = tiny_spec; deadline_ms = Some 1500 })
   with
  | Protocol.Submit { spec; deadline_ms } ->
      check_bool "spec survives" true (spec = tiny_spec);
      check_bool "deadline survives" true (deadline_ms = Some 1500)
  | _ -> Alcotest.fail "submit");
  (match roundtrip_request (Protocol.Status { job = 3 }) with
  | Protocol.Status { job } -> check_int "status job" 3 job
  | _ -> Alcotest.fail "status");
  (match roundtrip_request (Protocol.Results { job = 4 }) with
  | Protocol.Results { job } -> check_int "results job" 4 job
  | _ -> Alcotest.fail "results");
  (match roundtrip_request (Protocol.Lease { worker = "w0" }) with
  | Protocol.Lease { worker } -> check_string "lease worker" "w0" worker
  | _ -> Alcotest.fail "lease");
  (match
     roundtrip_request
       (Protocol.Complete { worker = "w0"; task = 9; result = Json.Int 1 })
   with
  | Protocol.Complete { worker; task; result } ->
      check_string "complete worker" "w0" worker;
      check_int "complete task" 9 task;
      check_bool "complete result" true (result = Json.Int 1)
  | _ -> Alcotest.fail "complete");
  (match
     roundtrip_request (Protocol.Fail { worker = "w1"; task = 2; error = "boom" })
   with
  | Protocol.Fail { worker; task; error } ->
      check_string "fail worker" "w1" worker;
      check_int "fail task" 2 task;
      check_string "fail error" "boom" error
  | _ -> Alcotest.fail "fail");
  (match roundtrip_request (Protocol.Ping { worker = "w2" }) with
  | Protocol.Ping { worker } -> check_string "ping worker" "w2" worker
  | _ -> Alcotest.fail "ping");
  (match roundtrip_request (Protocol.Cancel { job = 12 }) with
  | Protocol.Cancel { job } -> check_int "cancel job" 12 job
  | _ -> Alcotest.fail "cancel");
  (match roundtrip_request Protocol.Subscribe with
  | Protocol.Subscribe -> ()
  | _ -> Alcotest.fail "subscribe");
  match roundtrip_request Protocol.Stats with
  | Protocol.Stats -> ()
  | _ -> Alcotest.fail "stats"

(* PR 8 speakers send schema /1 and no worker flag; the v2 daemon must
   keep understanding them verbatim. *)
let test_request_v1_schema_accepted () =
  let v1 =
    Json.Obj
      [
        ("schema", Json.String Ncg_obs.Schema.service_request_v1);
        ("verb", Json.String "hello");
        ("client", Json.String "old");
      ]
  in
  (match Protocol.request_of_json v1 with
  | Ok (Protocol.Hello { client; worker }) ->
      check_string "v1 hello client" "old" client;
      check_bool "v1 hello defaults to non-worker" false worker
  | _ -> Alcotest.fail "v1 hello");
  check_bool "future schema rejected" true
    (Result.is_error
       (Protocol.request_of_json
          (Json.Obj
             [
               ( "schema",
                 Json.String
                   ("ncg.service.request/3"
                   [@lint.allow
                     "R1"
                       "a deliberately unknown future version: the test \
                        proves the daemon rejects it, so it must never be \
                        registered"]) );
               ("verb", Json.String "stats");
             ])))

let test_response_roundtrip () =
  let rt r =
    match Protocol.response_of_json (Protocol.response_to_json r) with
    | Ok r -> r
    | Error msg -> Alcotest.failf "response did not round-trip: %s" msg
  in
  (match rt (Protocol.Resp_ok [ ("job", Json.Int 1) ]) with
  | Protocol.Resp_ok fields ->
      check_bool "ok fields" true (List.assoc_opt "job" fields = Some (Json.Int 1))
  | _ -> Alcotest.fail "ok");
  (match rt (Protocol.Resp_error "nope") with
  | Protocol.Resp_error msg -> check_string "error msg" "nope" msg
  | _ -> Alcotest.fail "error");
  check_bool "foreign schema rejected" true
    (Result.is_error (Protocol.response_of_json (Json.Obj [ ("ok", Json.Bool true) ])))

(* --- Work queue ----------------------------------------------------------- *)

let test_queue_basic () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "queue.log" in
      let q, recovery = Work_queue.openfile path in
      check_int "fresh queue replays nothing" 0 recovery.Work_queue.replayed;
      let a = Work_queue.enqueue q ~payload:"cell-a" in
      let b = Work_queue.enqueue q ~payload:"cell-b" in
      check_int "dense ids" 1 (b - a);
      check_int "pending" 2 (Work_queue.pending q);
      (match Work_queue.lease q ~worker:"w" with
      | Some e ->
          check_int "FIFO: oldest first" a e.Work_queue.id;
          check_string "payload" "cell-a" e.Work_queue.payload;
          check_int "first lease attempt" 1 e.Work_queue.attempts
      | None -> Alcotest.fail "lease should find work");
      Work_queue.complete q ~id:a;
      check_int "completed" 1 (Work_queue.completed q);
      Work_queue.cancel q ~id:b;
      check_int "cancelled" 1 (Work_queue.cancelled q);
      check_bool "empty lease" true (Work_queue.lease q ~worker:"w" = None);
      Work_queue.close q)

let test_queue_requeue_attempts () =
  with_temp_dir (fun dir ->
      let q, _ = Work_queue.openfile (Filename.concat dir "queue.log") in
      let id = Work_queue.enqueue q ~payload:"p" in
      (match Work_queue.lease q ~worker:"w" with
      | Some e -> check_int "attempt 1" 1 e.Work_queue.attempts
      | None -> Alcotest.fail "lease 1");
      Work_queue.requeue q ~id;
      (match Work_queue.lease q ~worker:"w" with
      | Some e -> check_int "attempt 2 after requeue" 2 e.Work_queue.attempts
      | None -> Alcotest.fail "lease 2");
      check_bool "complete of unleased raises" true
        (match Work_queue.complete q ~id:(id + 1) with
        | () -> false
        | exception Invalid_argument _ -> true);
      Work_queue.close q)

let test_queue_lease_id () =
  with_temp_dir (fun dir ->
      let q, _ = Work_queue.openfile (Filename.concat dir "queue.log") in
      let a = Work_queue.enqueue q ~payload:"a" in
      let b = Work_queue.enqueue q ~payload:"b" in
      (* The fairness policy leases a specific entry, skipping the FIFO
         head. *)
      (match Work_queue.lease_id q ~worker:"w" ~id:b with
      | Some e ->
          check_int "targeted lease" b e.Work_queue.id;
          check_string "targeted payload" "b" e.Work_queue.payload
      | None -> Alcotest.fail "lease_id should grant a pending entry");
      check_bool "already-leased id refused" true
        (Work_queue.lease_id q ~worker:"w2" ~id:b = None);
      (match Work_queue.lease q ~worker:"w" with
      | Some e -> check_int "FIFO head untouched until leased" a e.Work_queue.id
      | None -> Alcotest.fail "head still pending");
      Work_queue.close q)

let test_queue_runtime_reclaim () =
  with_temp_dir (fun dir ->
      let q, _ = Work_queue.openfile (Filename.concat dir "queue.log") in
      let a = Work_queue.enqueue q ~payload:"a" in
      let b = Work_queue.enqueue q ~payload:"b" in
      ignore (Work_queue.lease q ~worker:"w");
      ignore (Work_queue.lease q ~worker:"w");
      check_int "both leased" 2 (Work_queue.leased q);
      (* The heartbeat monitor's path: reclaim everything a silent
         worker holds, durably, in id order. *)
      check_bool "reclaim returns the worker's leases in id order" true
        (Work_queue.reclaim q ~worker:"w" = [ a; b ]);
      check_int "both pending again" 2 (Work_queue.pending q);
      check_int "nothing reclaimed for strangers" 0
        (List.length (Work_queue.reclaim q ~worker:"other"));
      (match Work_queue.lease q ~worker:"w2" with
      | Some e ->
          (* Like openfile's orphan pass, a runtime reclaim charges the
             interrupted attempt against the retry budget. *)
          check_int "reclaim charges the interrupted attempt" 2
            e.Work_queue.attempts
      | None -> Alcotest.fail "lease after reclaim");
      Work_queue.close q)

let test_queue_reclaims_orphan_leases () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "queue.log" in
      let q, _ = Work_queue.openfile path in
      let a = Work_queue.enqueue q ~payload:"a" in
      let _b = Work_queue.enqueue q ~payload:"b" in
      ignore (Work_queue.lease q ~worker:"w");
      (* Simulate a daemon crash: close with entry [a] still leased. *)
      Work_queue.close q;
      let q, recovery = Work_queue.openfile path in
      check_int "orphan lease reclaimed" 1 recovery.Work_queue.reclaimed;
      check_int "both entries pending again" 2 (Work_queue.pending q);
      (match Work_queue.pending_entries q with
      | [ e1; e2 ] ->
          check_int "oldest first" a e1.Work_queue.id;
          (* The crash-interrupted lease counts against the retry
             budget, exactly like a runtime requeue would. *)
          check_int "reclaim charges the interrupted attempt" 2
            e1.Work_queue.attempts;
          check_int "never-leased entry at 1 attempt" 1 e2.Work_queue.attempts
      | entries ->
          Alcotest.failf "expected 2 pending entries, got %d" (List.length entries));
      Work_queue.close q)

(* --- Scheduler ------------------------------------------------------------ *)

let scheduler_config dir =
  {
    Scheduler.store_dir = dir;
    max_retries = 1;
    default_deadline_ms = None;
    max_cells = None;
    (* Neutral health settings: the monitor is off and workers are never
       quarantined, so tests of scheduling alone see no interference.
       The health tests below override these. *)
    heartbeat_timeout_ms = 0;
    quarantine_failures = 1000;
    quarantine_cooldown_ms = 0;
  }

let submit_ok t ~client spec =
  match Scheduler.submit t ~client spec with
  | Ok info -> info
  | Error msg -> Alcotest.failf "submit failed: %s" msg

(* Drain the queue acting as the worker the daemon would drive,
   counting real [run_cell] executions. *)
let work_all t ~worker =
  let executions = ref 0 in
  let rec loop () =
    match Scheduler.lease t ~worker with
    | Scheduler.Empty -> ()
    | Scheduler.Rejected { state } ->
        Alcotest.failf "worker unexpectedly shed (%s)" state
    | Scheduler.Granted task ->
        incr executions;
        let result =
          Experiment.cell_result_to_json
            (Sweep_spec.run_cell task.Scheduler.spec task.Scheduler.cell)
        in
        (match Scheduler.complete t ~worker ~task:task.Scheduler.task_id result with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "complete failed: %s" msg);
        loop ()
  in
  loop ();
  !executions

let results_ok t ~job =
  match Scheduler.results t ~job with
  | Ok (rows, quarantined) -> (rows, quarantined)
  | Error msg -> Alcotest.failf "results failed: %s" msg

(* Dig into [stats_fields]: the request counters and the per-worker
   health pane. *)
let stats_counter t name =
  match List.assoc_opt "counters" (Scheduler.stats_fields t) with
  | Some (Json.Obj fields) -> (
      match List.assoc_opt name fields with
      | Some (Json.Int n) -> n
      | _ -> Alcotest.failf "counter %S missing from stats" name)
  | _ -> Alcotest.fail "no counters in stats"

let worker_stat t worker field =
  match List.assoc_opt "workers" (Scheduler.stats_fields t) with
  | Some (Json.List ws) -> (
      let entry =
        List.find_opt
          (function
            | Json.Obj f -> List.assoc_opt "name" f = Some (Json.String worker)
            | _ -> false)
          ws
      in
      match entry with
      | Some (Json.Obj f) -> (
          match List.assoc_opt field f with
          | Some v -> v
          | None -> Alcotest.failf "worker field %S missing" field)
      | _ -> Alcotest.failf "worker %S not in stats" worker)
  | _ -> Alcotest.fail "no workers in stats"

let test_scheduler_dedup_two_clients () =
  with_temp_dir (fun dir ->
      let t = Scheduler.create (scheduler_config dir) in
      Fun.protect
        ~finally:(fun () -> Scheduler.close t)
        (fun () ->
          (* Two clients submit the same grid before any work happens:
             the second submission must attach to the first's in-flight
             cells, not queue duplicates. *)
          let info1 = submit_ok t ~client:"alice" tiny_spec in
          let info2 = submit_ok t ~client:"bob" tiny_spec in
          let cells = List.length (Sweep_spec.cells tiny_spec) in
          check_int "first submission queues everything" cells
            info1.Scheduler.queued;
          check_int "second submission queues nothing" 0 info2.Scheduler.queued;
          check_int "second submission dedups everything" cells
            info2.Scheduler.deduped;
          let executions = work_all t ~worker:"w" in
          (* The acceptance property: one execution and one store insert
             per distinct cell, however many clients asked for it. *)
          check_int "each distinct cell ran exactly once" cells executions;
          check_int "store inserts == unique executions" cells
            (Store.stats (Scheduler.store t)).Store.inserts;
          let rows1, q1 = results_ok t ~job:info1.Scheduler.job in
          let rows2, q2 = results_ok t ~job:info2.Scheduler.job in
          check_int "no quarantine" 0 (List.length q1 + List.length q2);
          check_int "full grid" cells (List.length rows1);
          check_bool "both clients read byte-identical rows" true
            (rows1 = rows2)))

let test_scheduler_fair_round_robin () =
  with_temp_dir (fun dir ->
      let t = Scheduler.create (scheduler_config dir) in
      Fun.protect
        ~finally:(fun () -> Scheduler.close t)
        (fun () ->
          (* Disjoint grids so each lease's alpha identifies its
             submitting client. *)
          let spec_a = { tiny_spec with Sweep_spec.alphas = [ 1.0; 3.0 ] } in
          let spec_b = { tiny_spec with Sweep_spec.alphas = [ 5.0; 7.0 ] } in
          ignore (submit_ok t ~client:"alice" spec_a);
          ignore (submit_ok t ~client:"bob" spec_b);
          let next () =
            match Scheduler.lease t ~worker:"w" with
            | Scheduler.Granted task ->
                (task.Scheduler.task_id, task.Scheduler.cell.Experiment.alpha)
            | _ -> Alcotest.fail "expected a grant"
          in
          (* Global FIFO would drain alice's grid first (1,3,5,7);
             round-robin interleaves the clients, each contributing its
             own oldest cell in turn. The lets force evaluation order —
             a list literal would observe the leases right-to-left. *)
          let l1 = next () in
          let l2 = next () in
          let l3 = next () in
          let l4 = next () in
          let got = [ l1; l2; l3; l4 ] in
          if got <> [ (0, 1.0); (2, 5.0); (1, 3.0); (3, 7.0) ] then
            Alcotest.failf "lease order: %s"
              (String.concat ", "
                 (List.map (fun (id, a) -> Printf.sprintf "%d:%g" id a) got));
          check_bool "queue drained" true
            (Scheduler.lease t ~worker:"w" = Scheduler.Empty)))

let test_scheduler_cache_hit () =
  with_temp_dir (fun dir ->
      (* Warm the store through one scheduler lifetime... *)
      let t = Scheduler.create (scheduler_config dir) in
      let info = submit_ok t ~client:"warm" tiny_spec in
      ignore (work_all t ~worker:"w");
      let rows_first, _ = results_ok t ~job:info.Scheduler.job in
      Scheduler.close t;
      (* ...then a fresh daemon over the same store answers from cache:
         nothing queued, job done at submit time. *)
      let t = Scheduler.create (scheduler_config dir) in
      Fun.protect
        ~finally:(fun () -> Scheduler.close t)
        (fun () ->
          let info = submit_ok t ~client:"cold" tiny_spec in
          let cells = List.length (Sweep_spec.cells tiny_spec) in
          check_int "all cells cached" cells info.Scheduler.cached;
          check_int "nothing queued" 0 info.Scheduler.queued;
          (match Scheduler.status t ~job:info.Scheduler.job with
          | Some fields ->
              check_bool "job done immediately" true
                (List.assoc_opt "state" fields = Some (Json.String "done"))
          | None -> Alcotest.fail "job status");
          let rows, _ = results_ok t ~job:info.Scheduler.job in
          check_bool "cached rows byte-identical to computed ones" true
            (rows = rows_first)))

let test_scheduler_fail_quarantines () =
  with_temp_dir (fun dir ->
      (* max_retries = 1: the second failed attempt is terminal. *)
      let t = Scheduler.create (scheduler_config dir) in
      Fun.protect
        ~finally:(fun () -> Scheduler.close t)
        (fun () ->
          let spec = { tiny_spec with Sweep_spec.alphas = [ 2.0 ] } in
          let info = submit_ok t ~client:"c" spec in
          check_int "one cell" 1 info.Scheduler.total;
          let fail_once () =
            match Scheduler.lease t ~worker:"w" with
            | Scheduler.Granted task -> (
                match
                  Scheduler.fail t ~worker:"w" ~task:task.Scheduler.task_id
                    ~error:"induced"
                with
                | Ok () -> ()
                | Error msg -> Alcotest.failf "fail failed: %s" msg)
            | _ -> Alcotest.fail "expected a leasable task"
          in
          fail_once ();
          (* Attempt 1 failed: requeued, still leasable. *)
          fail_once ();
          (* Attempt 2 failed: quarantined — queue is empty now. *)
          check_bool "no third attempt" true
            (Scheduler.lease t ~worker:"w" = Scheduler.Empty);
          let rows, quarantined = results_ok t ~job:info.Scheduler.job in
          check_int "no rows" 0 (List.length rows);
          (match quarantined with
          | [ (alpha, k, error) ] ->
              check_bool "cell identity" true (alpha = 2.0 && k = 1);
              check_string "error carried" "induced" error
          | _ -> Alcotest.fail "expected exactly one quarantined cell");
          check_bool "scheduler idle after quarantine" true (Scheduler.idle t)))

(* [doc] with every probe series capacity set to 1: well-formed JSON
   that [Timeseries.create] would reject by raising. Only probe
   snapshots and their series carry a "capacity" field. *)
let rec with_probe_capacity_1 = function
  | Json.Obj fields ->
      Json.Obj
        (List.map
           (fun (k, v) ->
             if String.equal k "capacity" then (k, Json.Int 1)
             else (k, with_probe_capacity_1 v))
           fields)
  | j -> j

(* An undecodable result must come back as [Error] and requeue the
   entry; an exception would kill the daemon's connection thread with
   the lease still held. *)
let test_scheduler_undecodable_complete_requeues () =
  with_temp_dir (fun dir ->
      let t = Scheduler.create (scheduler_config dir) in
      Fun.protect
        ~finally:(fun () -> Scheduler.close t)
        (fun () ->
          ignore (submit_ok t ~client:"c" { tiny_spec with Sweep_spec.alphas = [ 1.0 ] });
          match Scheduler.lease t ~worker:"w" with
          | Scheduler.Granted task -> (
              let result =
                with_probe_capacity_1
                  (Experiment.cell_result_to_json
                     (Sweep_spec.run_cell task.Scheduler.spec task.Scheduler.cell))
              in
              let completed =
                Scheduler.complete t ~worker:"w" ~task:task.Scheduler.task_id result
              in
              check_bool "complete returns Error" true (Result.is_error completed);
              match Scheduler.lease t ~worker:"w" with
              | Scheduler.Granted again ->
                  check_int "the same task is leased again" task.Scheduler.task_id
                    again.Scheduler.task_id
              | _ -> Alcotest.fail "task was not requeued")
          | _ -> Alcotest.fail "expected a grant"))

let test_scheduler_worker_lost () =
  with_temp_dir (fun dir ->
      let t = Scheduler.create (scheduler_config dir) in
      Fun.protect
        ~finally:(fun () -> Scheduler.close t)
        (fun () ->
          let info = submit_ok t ~client:"c" tiny_spec in
          (match Scheduler.lease t ~worker:"doomed" with
          | Scheduler.Granted _ -> ()
          | _ -> Alcotest.fail "lease");
          (* The doomed worker's connection drops: its lease goes back
             to pending and a healthy worker finishes the job. *)
          check_int "one lease requeued" 1 (Scheduler.worker_lost t ~worker:"doomed");
          check_bool "lost worker drained" true
            (worker_stat t "doomed" "state" = Json.String "drained");
          let cells = List.length (Sweep_spec.cells tiny_spec) in
          check_int "healthy worker runs the whole grid" cells
            (work_all t ~worker:"healthy");
          let rows, quarantined = results_ok t ~job:info.Scheduler.job in
          check_int "no quarantine" 0 (List.length quarantined);
          check_int "full grid" cells (List.length rows)))

let test_scheduler_heartbeat_expiry () =
  with_temp_dir (fun dir ->
      let cfg =
        { (scheduler_config dir) with Scheduler.heartbeat_timeout_ms = 50 }
      in
      let t = Scheduler.create cfg in
      Fun.protect
        ~finally:(fun () -> Scheduler.close t)
        (fun () ->
          let spec = { tiny_spec with Sweep_spec.alphas = [ 2.0 ] } in
          let info = submit_ok t ~client:"c" spec in
          let task =
            match Scheduler.lease t ~worker:"slow" with
            | Scheduler.Granted task -> task
            | _ -> Alcotest.fail "lease"
          in
          (* A beating worker keeps its lease across ticks... *)
          Unix.sleepf 0.005;
          ignore (Scheduler.heartbeat t ~worker:"slow");
          Scheduler.tick t;
          check_int "lease held while beating" 0
            (stats_counter t "lease_expiries");
          check_int "heartbeat counted" 1 (stats_counter t "heartbeats");
          (* ...then it goes silent past the timeout: the monitor
             durably reclaims the lease and charges the attempt. *)
          Unix.sleepf 0.2;
          Scheduler.tick t;
          check_int "lease reclaimed from the silent worker" 1
            (stats_counter t "lease_expiries");
          check_bool "silent worker suspected" true
            (worker_stat t "slow" "state" = Json.String "suspect");
          (match Scheduler.lease t ~worker:"steady" with
          | Scheduler.Granted retry ->
              check_int "expiry charged the interrupted attempt" 2
                retry.Scheduler.attempts;
              check_bool "same cell re-dispatched" true
                (retry.Scheduler.cell = task.Scheduler.cell);
              let result =
                Experiment.cell_result_to_json
                  (Sweep_spec.run_cell retry.Scheduler.spec retry.Scheduler.cell)
              in
              (match
                 Scheduler.complete t ~worker:"steady"
                   ~task:retry.Scheduler.task_id result
               with
              | Ok () -> ()
              | Error msg -> Alcotest.failf "complete failed: %s" msg)
          | _ -> Alcotest.fail "re-lease after expiry");
          let rows, quarantined = results_ok t ~job:info.Scheduler.job in
          check_int "no quarantine" 0 (List.length quarantined);
          check_int "cell delivered despite the silent worker" 1
            (List.length rows)))

let test_scheduler_worker_quarantine_readmission () =
  with_temp_dir (fun dir ->
      let cfg =
        {
          (scheduler_config dir) with
          Scheduler.max_retries = 5;
          quarantine_failures = 2;
          quarantine_cooldown_ms = 200;
        }
      in
      let t = Scheduler.create cfg in
      Fun.protect
        ~finally:(fun () -> Scheduler.close t)
        (fun () ->
          let spec = { tiny_spec with Sweep_spec.alphas = [ 2.0 ] } in
          let info = submit_ok t ~client:"c" spec in
          let fail_once () =
            match Scheduler.lease t ~worker:"flaky" with
            | Scheduler.Granted task -> (
                match
                  Scheduler.fail t ~worker:"flaky" ~task:task.Scheduler.task_id
                    ~error:"induced"
                with
                | Ok () -> ()
                | Error msg -> Alcotest.failf "fail failed: %s" msg)
            | _ -> Alcotest.fail "expected a grant"
          in
          fail_once ();
          check_bool "one strike: suspect" true
            (worker_stat t "flaky" "state" = Json.String "suspect");
          fail_once ();
          (* The second consecutive failure crosses the threshold. *)
          check_bool "two strikes: quarantined" true
            (worker_stat t "flaky" "state" = Json.String "quarantined");
          check_int "worker quarantine counted" 1
            (stats_counter t "worker_quarantines");
          (match Scheduler.lease t ~worker:"flaky" with
          | Scheduler.Rejected { state } ->
              check_string "lease shed with the state" "quarantined" state
          | _ -> Alcotest.fail "quarantined worker must be shed");
          (* The cell itself is unharmed: a healthy worker runs it. *)
          check_int "healthy worker completes the cell" 1
            (work_all t ~worker:"steady");
          let rows, quarantined = results_ok t ~job:info.Scheduler.job in
          check_int "no cell quarantine" 0 (List.length quarantined);
          check_int "one row" 1 (List.length rows);
          (* Cooldown served: the next ping readmits on probation. *)
          Unix.sleepf 0.25;
          let state, revoked = Scheduler.heartbeat t ~worker:"flaky" in
          check_string "readmitted as suspect" "suspect" state;
          check_int "no revocations pending" 0 (List.length revoked);
          match Scheduler.lease t ~worker:"flaky" with
          | Scheduler.Empty -> ()
          | _ -> Alcotest.fail "readmitted worker polls again (queue is empty)"))

let test_scheduler_cancel_revokes_lease () =
  with_temp_dir (fun dir ->
      let t = Scheduler.create (scheduler_config dir) in
      Fun.protect
        ~finally:(fun () -> Scheduler.close t)
        (fun () ->
          let spec = { tiny_spec with Sweep_spec.alphas = [ 2.0 ] } in
          let info = submit_ok t ~client:"c" spec in
          let task =
            match Scheduler.lease t ~worker:"rw" with
            | Scheduler.Granted task -> task
            | _ -> Alcotest.fail "lease"
          in
          (match Scheduler.cancel t ~job:info.Scheduler.job with
          | Ok (released, revoked) ->
              check_int "nothing merely released" 0 released;
              check_int "one lease revoked" 1 revoked
          | Error msg -> Alcotest.failf "cancel failed: %s" msg);
          check_bool "revocation flag set" true
            (Atomic.get task.Scheduler.revoked);
          (* The in-process execution path: the revoked flag trips the
             computation's next cooperative checkpoint mid-cell. *)
          (match
             Ncg_fault.Cancel.with_control ~cancel:task.Scheduler.revoked
               (fun () ->
                 Sweep_spec.run_cell task.Scheduler.spec task.Scheduler.cell)
           with
          | _ -> Alcotest.fail "revoked cell must abort at a checkpoint"
          | exception Ncg_fault.Cancel.Timed_out _ -> ());
          (* The remote path: the worker's next heartbeat carries the
             revocation, exactly once. *)
          let _, revoked_ids = Scheduler.heartbeat t ~worker:"rw" in
          check_bool "heartbeat delivers the revocation" true
            (revoked_ids = [ task.Scheduler.task_id ]);
          let _, again = Scheduler.heartbeat t ~worker:"rw" in
          check_int "revocation delivered once" 0 (List.length again);
          (match Scheduler.status t ~job:info.Scheduler.job with
          | Some fields ->
              check_bool "job cancelled" true
                (List.assoc_opt "state" fields = Some (Json.String "cancelled"))
          | None -> Alcotest.fail "status");
          check_bool "results refused for cancelled job" true
            (Result.is_error (Scheduler.results t ~job:info.Scheduler.job));
          check_bool "cancel of a terminal job refused" true
            (Result.is_error (Scheduler.cancel t ~job:info.Scheduler.job));
          check_int "cancel counted" 1 (stats_counter t "cancels");
          check_bool "queue drained by cancellation" true (Scheduler.idle t)))

let test_scheduler_cancel_preserves_shared () =
  with_temp_dir (fun dir ->
      let t = Scheduler.create (scheduler_config dir) in
      Fun.protect
        ~finally:(fun () -> Scheduler.close t)
        (fun () ->
          let info_a = submit_ok t ~client:"alice" tiny_spec in
          let info_b = submit_ok t ~client:"bob" tiny_spec in
          (* Alice bails; bob still waits on every cell, so nothing may
             be released or revoked. *)
          (match Scheduler.cancel t ~job:info_a.Scheduler.job with
          | Ok (released, revoked) ->
              check_int "shared cells survive the cancel" 0 (released + revoked)
          | Error msg -> Alcotest.failf "cancel failed: %s" msg);
          let cells = List.length (Sweep_spec.cells tiny_spec) in
          check_int "bob's grid still runs in full" cells
            (work_all t ~worker:"w");
          let rows, quarantined = results_ok t ~job:info_b.Scheduler.job in
          check_int "no quarantine" 0 (List.length quarantined);
          check_int "full grid for the surviving client" cells
            (List.length rows)))

let test_scheduler_deadline_expiry () =
  with_temp_dir (fun dir ->
      let t = Scheduler.create (scheduler_config dir) in
      Fun.protect
        ~finally:(fun () -> Scheduler.close t)
        (fun () ->
          let info =
            match Scheduler.submit t ~client:"c" ~deadline_ms:0 tiny_spec with
            | Ok info -> info
            | Error msg -> Alcotest.failf "submit failed: %s" msg
          in
          Unix.sleepf 0.01;
          Scheduler.tick t;
          (match Scheduler.status t ~job:info.Scheduler.job with
          | Some fields ->
              check_bool "job expired" true
                (List.assoc_opt "state" fields = Some (Json.String "expired"))
          | None -> Alcotest.fail "job status");
          check_bool "results refused for expired job" true
            (Result.is_error (Scheduler.results t ~job:info.Scheduler.job));
          (* No other job wants these cells: expiry released them. *)
          check_bool "queue drained by expiry" true (Scheduler.idle t)))

let test_scheduler_restart_readopts_queue () =
  with_temp_dir (fun dir ->
      (* Enqueue work, lease some of it, then "crash" (close without
         completing). *)
      let t = Scheduler.create (scheduler_config dir) in
      let info = submit_ok t ~client:"c" tiny_spec in
      (match Scheduler.lease t ~worker:"w" with
      | Scheduler.Granted _ -> ()
      | _ -> Alcotest.fail "lease");
      Scheduler.close t;
      ignore info;
      (* The restarted daemon re-adopts the recovered entries as
         in-flight cells: a resubmission dedups against them instead of
         double-queueing. *)
      let t = Scheduler.create (scheduler_config dir) in
      Fun.protect
        ~finally:(fun () -> Scheduler.close t)
        (fun () ->
          let cells = List.length (Sweep_spec.cells tiny_spec) in
          let info = submit_ok t ~client:"again" tiny_spec in
          check_int "resubmission queues nothing" 0 info.Scheduler.queued;
          check_int "resubmission attaches to recovered work" cells
            info.Scheduler.deduped;
          check_int "recovered work runs once" cells (work_all t ~worker:"w");
          let rows, quarantined = results_ok t ~job:info.Scheduler.job in
          check_int "no quarantine" 0 (List.length quarantined);
          check_int "full grid" cells (List.length rows)))

(* Run [tiny_spec] to completion with [nworkers] interleaved workers,
   failing the alpha = 3.0 cell deterministically on every attempt.
   Returns the outcome vector: CSV rows plus quarantined cells. *)
let run_with_workers nworkers =
  with_temp_dir (fun dir ->
      let t = Scheduler.create (scheduler_config dir) in
      Fun.protect
        ~finally:(fun () -> Scheduler.close t)
        (fun () ->
          let info = submit_ok t ~client:"c" tiny_spec in
          let workers = List.init nworkers (Printf.sprintf "w%d") in
          let progressed = ref true in
          while !progressed do
            progressed := false;
            List.iter
              (fun w ->
                match Scheduler.lease t ~worker:w with
                | Scheduler.Empty -> ()
                | Scheduler.Rejected { state } ->
                    Alcotest.failf "worker unexpectedly shed (%s)" state
                | Scheduler.Granted task ->
                    progressed := true;
                    let outcome =
                      if task.Scheduler.cell.Experiment.alpha = 3.0 then
                        Scheduler.fail t ~worker:w
                          ~task:task.Scheduler.task_id ~error:"induced"
                      else
                        Scheduler.complete t ~worker:w
                          ~task:task.Scheduler.task_id
                          (Experiment.cell_result_to_json
                             (Sweep_spec.run_cell task.Scheduler.spec
                                task.Scheduler.cell))
                    in
                    (match outcome with
                    | Ok () -> ()
                    | Error msg -> Alcotest.failf "worker %s: %s" w msg))
              workers
          done;
          (* One cell succeeds, the other exhausts its retry budget:
             the job is done with a quarantine gap. *)
          results_ok t ~job:info.Scheduler.job))

let test_scheduler_worker_count_independence () =
  let rows1, quarantined1 = run_with_workers 1 in
  check_int "failing cell quarantined" 1 (List.length quarantined1);
  check_int "surviving cell delivered" 1 (List.length rows1);
  let v2 = run_with_workers 2 in
  let v4 = run_with_workers 4 in
  check_bool "2 workers: same outcome vector as 1" true
    (v2 = (rows1, quarantined1));
  check_bool "4 workers: same outcome vector as 1" true
    (v4 = (rows1, quarantined1))

(* --- Worker attempts -------------------------------------------------------- *)

let test_worker_attempt_matches_one_shot () =
  (* Both daemon worker kinds make each attempt through
     Server.compute_cell, which arms with the cell seed: the scope a
     one-shot sweep arms the same cell with. Under one plan an attempt
     therefore fails exactly when the sweep's (single) attempt does,
     and otherwise returns the sweep's row. *)
  let spec = { tiny_spec with alphas = [ 0.5; 1.0; 2.0; 3.0 ]; ks = [ 1; 2 ] } in
  (match Ncg_fault.Inject.parse_plan ~seed:5 "sweep.cell=raise@p:0.5" with
  | Ok plan -> Ncg_fault.Inject.install plan
  | Error e -> Alcotest.fail e);
  Fun.protect ~finally:Ncg_fault.Inject.clear (fun () ->
      let row_of = function
        | Ok r -> Some (Sweep_spec.csv_row spec r)
        | Error (_ : Experiment.cell_failure) -> None
      in
      let one_shot =
        Experiment.sweep_supervised ~probes:spec.Sweep_spec.probes
          ~make_initial:(Sweep_spec.make_initial spec)
          ~make_config:(Sweep_spec.make_config spec) ~cells:(Sweep_spec.cells spec)
          ~trials:spec.Sweep_spec.trials ~seed:spec.Sweep_spec.seed ()
        |> List.map row_of
      in
      check_bool "some cells fail" true (List.mem None one_shot);
      check_bool "some cells pass" true (List.exists Option.is_some one_shot);
      List.iter2
        (fun (cell : Experiment.cell) expected ->
          let got =
            match
              Ncg_service.Server.compute_cell ~cancel:(Atomic.make false) spec cell
            with
            | Ok json -> (
                match Experiment.cell_result_of_json json with
                | Ok r -> Some (Sweep_spec.csv_row spec r)
                | Error e -> Alcotest.fail e)
            | Error _ -> None
          in
          Alcotest.(check (option string))
            (Printf.sprintf "cell (%g,%d)" cell.Experiment.alpha cell.Experiment.k)
            expected got)
        (Sweep_spec.cells spec) one_shot)

let () =
  Alcotest.run "service"
    [
      ( "protocol",
        [
          Alcotest.test_case "parse_addr" `Quick test_parse_addr;
          Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
          Alcotest.test_case "v1 schema still accepted" `Quick
            test_request_v1_schema_accepted;
          Alcotest.test_case "response round-trip" `Quick test_response_roundtrip;
        ] );
      ( "work_queue",
        [
          Alcotest.test_case "enqueue/lease/complete/cancel" `Quick
            test_queue_basic;
          Alcotest.test_case "requeue increments attempts" `Quick
            test_queue_requeue_attempts;
          Alcotest.test_case "targeted lease by id" `Quick test_queue_lease_id;
          Alcotest.test_case "runtime reclaim of a worker's leases" `Quick
            test_queue_runtime_reclaim;
          Alcotest.test_case "reopen reclaims orphan leases" `Quick
            test_queue_reclaims_orphan_leases;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "two clients, one execution per cell" `Quick
            test_scheduler_dedup_two_clients;
          Alcotest.test_case "round-robin fairness across clients" `Quick
            test_scheduler_fair_round_robin;
          Alcotest.test_case "store warm across daemon restarts" `Quick
            test_scheduler_cache_hit;
          Alcotest.test_case "retry budget exhausts to quarantine" `Quick
            test_scheduler_fail_quarantines;
          Alcotest.test_case "lost worker's lease is requeued" `Quick
            test_scheduler_worker_lost;
          Alcotest.test_case "silent worker's lease expires" `Quick
            test_scheduler_heartbeat_expiry;
          Alcotest.test_case "worker quarantine and readmission" `Quick
            test_scheduler_worker_quarantine_readmission;
          Alcotest.test_case "cancel revokes the lease mid-cell" `Quick
            test_scheduler_cancel_revokes_lease;
          Alcotest.test_case "cancel spares cells shared with live jobs" `Quick
            test_scheduler_cancel_preserves_shared;
          Alcotest.test_case "deadline expiry releases queued cells" `Quick
            test_scheduler_deadline_expiry;
          Alcotest.test_case "restart re-adopts recovered queue" `Quick
            test_scheduler_restart_readopts_queue;
          Alcotest.test_case "outcome vector independent of worker count" `Quick
            test_scheduler_worker_count_independence;
          Alcotest.test_case "undecodable result is requeued" `Quick
            test_scheduler_undecodable_complete_requeues;
        ] );
      ( "worker",
        [
          Alcotest.test_case "attempt faults like a one-shot sweep" `Quick
            test_worker_attempt_matches_one_shot;
        ] );
    ]
