(* ncg_served: the persistent sweep daemon (and, with --worker, the
   external worker process that feeds off one).

   Daemon mode owns the content-addressed store and the durable work
   queue; clients (ncg_submit) submit sweep specs over newline-delimited
   JSON, workers lease cells, and every structured event is streamed to
   subscribers (ncg_top --events unix:PATH). See docs/SERVICE.md. *)

open Cmdliner
module Json = Ncg_obs.Json
module Protocol = Ncg_service.Protocol
module Scheduler = Ncg_service.Scheduler
module Server = Ncg_service.Server

let install_fault_plan spec seed =
  match spec with
  | None -> ()
  | Some spec -> (
      match Ncg_fault.Inject.parse_plan ~seed spec with
      | Ok plan -> Ncg_fault.Inject.install plan
      | Error msg ->
          Printf.eprintf "ncg_served: --fault-plan: %s\n%!" msg;
          exit 2)

let parse_addr_or_die s =
  match Protocol.parse_addr s with
  | Ok addr -> addr
  | Error msg ->
      Printf.eprintf "ncg_served: %s\n%!" msg;
      exit 2

(* --- Worker mode --------------------------------------------------------- *)

(* A worker process is a protocol client: lease, compute, complete (or
   fail), repeat. It never opens the store — results travel back over
   the socket and the daemon is the only writer. EOF from the daemon
   (shutdown) or "draining": true ends the loop.

   A second connection carries heartbeats: a thread pings every
   --heartbeat-ms so the daemon knows the worker is alive even while a
   long cell computes on the main connection. Ping replies also deliver
   lease revocations — if the daemon revoked the cell currently
   computing (client cancel), the heartbeat thread trips its
   cancellation flag and the next cooperative checkpoint abandons it. *)

(* The cell currently computing, shared with the heartbeat thread:
   (task id, cancellation flag). *)
let current_task : (int * bool Atomic.t) option Atomic.t = Atomic.make None

let heartbeat_loop addr name heartbeat_ms stop =
  match Protocol.connect addr with
  | exception Unix.Unix_error _ -> ()
  | ic, oc ->
      let rpc req =
        try
          Protocol.send_line oc (Protocol.request_to_json req);
          Protocol.recv_line ic
        with Sys_error _ | Unix.Unix_error _ -> Error "connection lost"
      in
      (* Plain hello, not a worker hello: this connection holds no
         leases, so its loss must not requeue anything. *)
      let _ = rpc (Protocol.Hello { client = name ^ "/hb"; worker = false }) in
      let rec loop () =
        if Atomic.get stop then ()
        else begin
          Unix.sleepf (float_of_int heartbeat_ms /. 1000.);
          if Atomic.get stop then ()
          else
            match rpc (Protocol.Ping { worker = name }) with
            | Ok (Some j) ->
                (match Protocol.response_of_json j with
                | Ok (Protocol.Resp_ok fields) ->
                    let revoked = Json.field "revoked" (Json.list (Json.opt Json.int)) in
                    (match
                       (Atomic.get current_task, Json.opt revoked (Json.Obj fields))
                     with
                    | Some (task_id, flag), Some ids when List.mem (Some task_id) ids ->
                        Atomic.set flag true
                    | _ -> ())
                | Ok (Protocol.Resp_error _) | Error _ ->
                    (* dropped beat (e.g. injected heartbeat fault):
                       keep pinging, the daemon's monitor decides *)
                    ());
                loop ()
            | Ok None | Error _ -> () (* daemon gone: main loop sees EOF too *)
        end
      in
      loop ();
      (try close_out oc with Sys_error _ -> ())

(* The task of a lease reply: its queue id and the cell to compute. *)
let lease_task j =
  let spec = Json.field "spec" (Json.nested Ncg.Sweep_spec.of_json) j in
  let alpha = Json.field "alpha" Json.number j in
  let cell = { Ncg.Experiment.alpha; k = Json.field "k" Json.int j } in
  (Json.field "id" Json.int j, spec, cell)

let worker_main connect name poll_ms heartbeat_ms fault_plan fault_seed =
  install_fault_plan fault_plan fault_seed;
  let addr = parse_addr_or_die connect in
  let ic, oc =
    try Protocol.connect addr
    with Unix.Unix_error (e, _, _) ->
      Printf.eprintf "ncg_served: cannot connect to %s: %s\n%!"
        (Protocol.addr_to_string addr)
        (Unix.error_message e);
      exit 1
  in
  let rpc req =
    Protocol.send_line oc (Protocol.request_to_json req);
    match Protocol.recv_line ic with
    | Ok (Some j) -> (
        match Protocol.response_of_json j with
        | Ok r -> Some r
        | Error msg ->
            Printf.eprintf "ncg_served: bad response: %s\n%!" msg;
            None)
    | Ok None -> None
    | Error msg ->
        Printf.eprintf "ncg_served: %s\n%!" msg;
        None
  in
  (match rpc (Protocol.Hello { client = name; worker = true }) with
  | Some (Protocol.Resp_ok _) -> ()
  | Some (Protocol.Resp_error msg) ->
      Printf.eprintf "ncg_served: hello rejected: %s\n%!" msg;
      exit 1
  | None ->
      Printf.eprintf "ncg_served: daemon hung up during hello\n%!";
      exit 1);
  let hb_stop = Atomic.make false in
  let hb_thread =
    if heartbeat_ms > 0 then
      Some (Thread.create (fun () -> heartbeat_loop addr name heartbeat_ms hb_stop) ())
    else None
  in
  let rec loop () =
    match rpc (Protocol.Lease { worker = name }) with
    | None -> () (* daemon gone *)
    | Some (Protocol.Resp_error msg) ->
        Printf.eprintf "ncg_served: lease rejected: %s\n%!" msg;
        exit 1
    | Some (Protocol.Resp_ok fields) -> (
        match List.assoc_opt "task" fields with
        | Some (Json.Obj _ as task_json) -> (
            let task_id, spec, cell =
              match Json.decode ~what:"lease reply task" lease_task task_json with
              | Ok task -> task
              | Error msg ->
                  Printf.eprintf "ncg_served: %s\n%!" msg;
                  exit 1
            in
            (* The same attempt in-process workers make. The
               cancellation flag is published for the heartbeat thread,
               which sets it if the daemon revokes this lease mid-cell. *)
            let cancel_flag = Atomic.make false in
            Atomic.set current_task (Some (task_id, cancel_flag));
            let outcome =
              Fun.protect
                ~finally:(fun () -> Atomic.set current_task None)
                (fun () -> Server.compute_cell ~cancel:cancel_flag spec cell)
            in
            let report =
              match outcome with
              | Ok result ->
                  Protocol.Complete { worker = name; task = task_id; result }
              | Error error -> Protocol.Fail { worker = name; task = task_id; error }
            in
            match rpc report with
            | Some (Protocol.Resp_ok _) -> loop ()
            | Some (Protocol.Resp_error msg) ->
                (* e.g. our lease was requeued under us; keep polling *)
                Printf.eprintf "ncg_served: report rejected: %s\n%!" msg;
                loop ()
            | None -> ())
        | _ ->
            let draining = Json.opt (Json.field "draining" Json.bool) (Json.Obj fields) in
            if draining = Some true then ()
            else begin
              Unix.sleepf (float_of_int poll_ms /. 1000.);
              loop ()
            end)
  in
  loop ();
  Atomic.set hb_stop true;
  (try close_out oc with Sys_error _ -> ());
  (* The heartbeat thread wakes from its sleep, sees the stop flag and
     exits; don't block shutdown on a full interval. *)
  (match hb_thread with
  | Some th when heartbeat_ms <= 1000 -> Thread.join th
  | _ -> ());
  exit 0

(* --- Daemon mode --------------------------------------------------------- *)

let daemon_main listen_spec store_dir workers poll_ms events fault_plan
    fault_seed max_retries max_cells deadline_ms tick_ms drain quiet
    heartbeat_timeout_ms quarantine_failures quarantine_cooldown_ms =
  if quiet then Ncg_obs.Events.set_progress false;
  install_fault_plan fault_plan fault_seed;
  let addr = parse_addr_or_die listen_spec in
  let scheduler =
    try
      Scheduler.create
        {
          Scheduler.store_dir;
          max_retries;
          default_deadline_ms = deadline_ms;
          max_cells;
          heartbeat_timeout_ms;
          quarantine_failures;
          quarantine_cooldown_ms;
        }
    with Ncg_store.Store.Locked { dir; pid } ->
      Printf.eprintf
        "ncg_served: store %s is locked by a running process (pid %d)\n%!" dir
        pid;
      exit 1
  in
  let listen_fd =
    try Server.listen addr
    with Unix.Unix_error (e, _, arg) ->
      Printf.eprintf "ncg_served: cannot listen on %s: %s (%s)\n%!"
        (Protocol.addr_to_string addr)
        (Unix.error_message e) arg;
      Scheduler.close scheduler;
      exit 1
  in
  let stop_signal s = ignore s; Server.shutdown () in
  List.iter
    (fun s ->
      try ignore (Sys.signal s (Sys.Signal_handle stop_signal))
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigint; Sys.sigterm ];
  Printf.eprintf "ncg_served: serving %s (store %s, %d worker domain%s)\n%!"
    (Protocol.addr_to_string addr)
    store_dir workers
    (if workers = 1 then "" else "s");
  Server.serve
    {
      Server.addr;
      workers;
      worker_poll_ms = poll_ms;
      events_file = events;
      tick_ms;
      drain;
    }
    scheduler listen_fd;
  Scheduler.close scheduler;
  Printf.eprintf "ncg_served: stopped\n%!"

(* --- CLI ----------------------------------------------------------------- *)

let run worker connect name listen store workers poll_ms events fault_plan
    fault_seed max_retries max_cells deadline_ms tick_ms drain quiet
    heartbeat_ms heartbeat_timeout_ms quarantine_failures
    quarantine_cooldown_ms =
  if worker then begin
    match connect with
    | Some connect ->
        worker_main connect name poll_ms heartbeat_ms fault_plan fault_seed
    | None ->
        Printf.eprintf "ncg_served: --worker requires --connect ADDR\n%!";
        exit 2
  end
  else
    daemon_main listen store workers poll_ms events fault_plan fault_seed
      max_retries max_cells deadline_ms tick_ms drain quiet
      heartbeat_timeout_ms quarantine_failures quarantine_cooldown_ms

let worker_flag =
  Arg.(value & flag & info [ "worker" ]
         ~doc:"Run as an external worker process feeding off a daemon \
               (requires $(b,--connect)).")

let connect =
  Arg.(value & opt (some string) None & info [ "connect" ] ~docv:"ADDR"
         ~doc:"Daemon address for --worker mode (unix:PATH or tcp:HOST:PORT).")

let worker_name =
  Arg.(value & opt string (Printf.sprintf "worker-%d" (Unix.getpid ()))
       & info [ "name" ] ~docv:"NAME" ~doc:"Worker name (default worker-PID).")

let listen =
  Arg.(value & opt string "unix:ncg.sock" & info [ "listen" ] ~docv:"ADDR"
         ~doc:"Address to serve (unix:PATH or tcp:HOST:PORT).")

let store =
  Arg.(value & opt string "ncg-store" & info [ "store" ] ~docv:"DIR"
         ~doc:"Content-addressed store directory (also holds queue.log).")

let workers =
  Arg.(value & opt int 1 & info [ "workers" ] ~docv:"N"
         ~doc:"In-process worker domains (0 = external workers only).")

let poll_ms =
  Arg.(value & opt int 50 & info [ "poll-ms" ] ~docv:"MS"
         ~doc:"Idle worker sleep between lease attempts.")

let events =
  Arg.(value & opt (some string) None & info [ "events" ] ~docv:"FILE"
         ~doc:"Append every structured event line to this file (the \
               stream subscribers see).")

let fault_plan =
  Arg.(value & opt (some string) None & info [ "fault-plan" ] ~docv:"SPEC"
         ~doc:"Install a deterministic fault plan (see ncg_experiment).")

let fault_seed =
  Arg.(value & opt int 0 & info [ "fault-seed" ] ~docv:"N"
         ~doc:"Seed for probabilistic fault triggers.")

let max_retries =
  Arg.(value & opt int 2 & info [ "max-retries" ] ~docv:"N"
         ~doc:"Failed attempts tolerated per cell before quarantine.")

let max_cells =
  Arg.(value & opt (some int) None & info [ "max-cells" ] ~docv:"N"
         ~doc:"Reject submissions whose grid exceeds N cells.")

let deadline_ms =
  Arg.(value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS"
         ~doc:"Default per-job deadline applied to submissions that \
               carry none.")

let tick_ms =
  Arg.(value & opt int 200 & info [ "tick-ms" ] ~docv:"MS"
         ~doc:"Deadline-check and shutdown-poll period.")

let drain =
  Arg.(value & flag & info [ "drain" ]
         ~doc:"Exit once at least one job was submitted and all work is \
               done (smoke-test mode).")

let quiet =
  Arg.(value & flag & info [ "quiet" ] ~doc:"Disable the progress line.")

let heartbeat_ms =
  Arg.(value & opt int 2000 & info [ "heartbeat-ms" ] ~docv:"MS"
         ~doc:"Worker mode: ping the daemon this often from a side \
               connection (0 disables heartbeats).")

let heartbeat_timeout_ms =
  Arg.(value & opt int 10_000 & info [ "heartbeat-timeout-ms" ] ~docv:"MS"
         ~doc:"Reclaim leases from external workers silent this long \
               (0 disables the heartbeat monitor).")

let quarantine_failures =
  Arg.(value & opt int 3 & info [ "quarantine-failures" ] ~docv:"N"
         ~doc:"Quarantine a worker after N consecutive failed or \
               expired attempts.")

let quarantine_cooldown_ms =
  Arg.(value & opt int 5000 & info [ "quarantine-cooldown-ms" ] ~docv:"MS"
         ~doc:"Quarantined workers may rejoin (ping) after this long.")

let cmd =
  let doc = "persistent sweep daemon over the content-addressed store" in
  Cmd.v
    (Cmd.info "ncg_served" ~doc)
    Term.(const run $ worker_flag $ connect $ worker_name $ listen $ store $ workers
          $ poll_ms $ events $ fault_plan $ fault_seed $ max_retries
          $ max_cells $ deadline_ms $ tick_ms $ drain $ quiet $ heartbeat_ms
          $ heartbeat_timeout_ms $ quarantine_failures $ quarantine_cooldown_ms)

let () = exit (Cmd.eval cmd)
