module Json = Ncg_obs.Json
module Events = Ncg_obs.Events

type config = {
  addr : Protocol.addr;
  workers : int;
  worker_poll_ms : int;
  events_file : string option;
  tick_ms : int;
  drain : bool;
}

(* Plain atomic flag so a Sys.Signal_handle can request shutdown. *)
let stop_flag = Atomic.make false
let shutdown () = Atomic.set stop_flag true

(* --- Listening ----------------------------------------------------------- *)

let listen addr =
  (match addr with
  | Protocol.Unix_sock path when Sys.file_exists path -> (
      (* Probe the leftover socket: a live daemon accepts, a dead one
         leaves a refusing inode we can safely replace. *)
      let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () ->
          Unix.close probe;
          raise (Unix.Unix_error (Unix.EADDRINUSE, "listen", path))
      | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
          (try Unix.close probe with Unix.Unix_error _ -> ());
          (try Sys.remove path with Sys_error _ -> ())
      | exception e ->
          (try Unix.close probe with Unix.Unix_error _ -> ());
          raise e)
  | _ -> ());
  let domain, sockaddr =
    match addr with
    | Protocol.Unix_sock path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
    | Protocol.Tcp (host, port) ->
        let ip =
          if host = "" || host = "*" then Unix.inet_addr_any
          else
            try Unix.inet_addr_of_string host
            with Failure _ -> Unix.inet_addr_loopback
        in
        (Unix.PF_INET, Unix.ADDR_INET (ip, port))
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (match addr with
  | Protocol.Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
  | Protocol.Unix_sock _ -> ());
  (try
     Unix.bind fd sockaddr;
     Unix.listen fd 64
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

(* --- Subscriber fan-out -------------------------------------------------- *)

type pump = {
  subs_mutex : Mutex.t;
  mutable subs : (int * out_channel) list;  (** id, socket channel *)
  mutable next_sub : int;
  pipe_read : in_channel;
  sink : out_channel;  (** pipe write end, installed as the Events sink *)
  events_file : string option;
  thread : Thread.t option ref;
}

let add_subscriber pump oc =
  Mutex.lock pump.subs_mutex;
  let id = pump.next_sub in
  pump.next_sub <- id + 1;
  pump.subs <- (id, oc) :: pump.subs;
  Mutex.unlock pump.subs_mutex;
  id

let remove_subscriber pump id =
  Mutex.lock pump.subs_mutex;
  pump.subs <- List.filter (fun (i, _) -> i <> id) pump.subs;
  Mutex.unlock pump.subs_mutex

let pump_loop pump =
  let rec loop () =
    match input_line pump.pipe_read with
    | exception End_of_file -> ()
    | line ->
        (match pump.events_file with
        | Some path -> (
            try Ncg_obs.Atomic_file.append_line path line
            with Sys_error _ -> ())
        | None -> ());
        Mutex.lock pump.subs_mutex;
        let subs = pump.subs in
        Mutex.unlock pump.subs_mutex;
        let dead =
          List.filter_map
            (fun (id, oc) ->
              try
                output_string oc line;
                output_char oc '\n';
                flush oc;
                None
              with Sys_error _ | Unix.Unix_error _ -> Some id)
            subs
        in
        List.iter (remove_subscriber pump) dead;
        loop ()
  in
  loop ()

let start_pump events_file =
  let r, w = Unix.pipe ~cloexec:true () in
  let pump =
    {
      subs_mutex = Mutex.create ();
      subs = [];
      next_sub = 0;
      pipe_read = Unix.in_channel_of_descr r;
      sink = Unix.out_channel_of_descr w;
      events_file;
      thread = ref None;
    }
  in
  Events.set_sink (Some pump.sink);
  pump.thread := Some (Thread.create pump_loop pump);
  pump

(* Detach the sink and wait for the pump to deliver everything already
   emitted (closing the write end EOFs the reader); subscriber channels
   stay open so the final events reach them. *)
let drain_pump pump =
  Events.set_sink None;
  (try close_out pump.sink with Sys_error _ -> ());
  (match !(pump.thread) with Some th -> Thread.join th | None -> ());
  (try close_in pump.pipe_read with Sys_error _ -> ())

let close_subscribers pump =
  Mutex.lock pump.subs_mutex;
  let subs = pump.subs in
  pump.subs <- [];
  Mutex.unlock pump.subs_mutex;
  List.iter
    (fun (_, oc) -> try close_out oc with Sys_error _ | Unix.Unix_error _ -> ())
    subs

(* --- In-process workers -------------------------------------------------- *)

let compute_cell ~cancel spec cell =
  Ncg_fault.Inject.arm ~scope:(Ncg.Sweep_spec.cell_seed spec cell);
  Fun.protect ~finally:Ncg_fault.Inject.disarm (fun () ->
      try
        Ncg_fault.Inject.(hit sweep_cell);
        Ncg_fault.Cancel.with_control ~cancel (fun () ->
            Ok
              (Ncg.Experiment.cell_result_to_json
                 (Ncg.Sweep_spec.run_cell spec cell)))
      with e -> Error (Printexc.to_string e))

let worker_loop ~name ~poll_ms scheduler =
  Scheduler.register_worker ~local:true scheduler ~worker:name;
  let rec loop () =
    if Atomic.get stop_flag then ()
    else
      match
        try Scheduler.lease ~local:true scheduler ~worker:name
        with Ncg_fault.Inject.Fault _ -> Scheduler.Empty
      with
      | Scheduler.Empty | Scheduler.Rejected _ ->
          Unix.sleepf (float_of_int poll_ms /. 1000.);
          loop ()
      | Scheduler.Granted task ->
          (match
             compute_cell ~cancel:task.Scheduler.revoked task.Scheduler.spec
               task.Scheduler.cell
           with
          | Ok result ->
              ignore
                (Scheduler.complete scheduler ~worker:name
                   ~task:task.Scheduler.task_id result)
          | Error msg ->
              (* A revoked lease is already resolved daemon-side; the
                 rejected report below is expected and ignored. *)
              ignore
                (Scheduler.fail scheduler ~worker:name
                   ~task:task.Scheduler.task_id ~error:msg));
          loop ()
  in
  loop ()

(* --- Request dispatch ---------------------------------------------------- *)

let handle_request scheduler pump conn_worker oc = function
  | Protocol.Hello { client; worker } ->
      (* A worker hello starts heartbeat monitoring before the first
         lease and binds the connection: dropping it requeues the
         worker's leases. Heartbeat side-connections say
         [worker = false] so their loss cannot spuriously requeue. *)
      if worker then begin
        conn_worker := Some client;
        Scheduler.register_worker scheduler ~worker:client
      end;
      Protocol.Resp_ok
        [ ("server", Json.String "ncg_served"); ("client", Json.String client) ]
  | Protocol.Submit { spec; deadline_ms } -> (
      match Scheduler.submit scheduler ~client:"remote" ?deadline_ms spec with
      | Ok info ->
          Protocol.Resp_ok
            [
              ("job", Json.Int info.Scheduler.job);
              ("total", Json.Int info.Scheduler.total);
              ("cached", Json.Int info.Scheduler.cached);
              ("deduped", Json.Int info.Scheduler.deduped);
              ("queued", Json.Int info.Scheduler.queued);
            ]
      | Error msg -> Protocol.Resp_error msg)
  | Protocol.Status { job } -> (
      match Scheduler.status scheduler ~job with
      | Some fields -> Protocol.Resp_ok fields
      | None -> Protocol.Resp_error (Printf.sprintf "unknown job %d" job))
  | Protocol.Results { job } -> (
      match Scheduler.results scheduler ~job with
      | Ok (rows, quarantined) ->
          Protocol.Resp_ok
            [
              ("header", Json.String Ncg.Experiment.csv_header);
              ("rows", Json.List (List.map (fun r -> Json.String r) rows));
              ( "quarantined",
                Json.List
                  (List.map
                     (fun (alpha, k, msg) ->
                       Json.Obj
                         [
                           ("alpha", Json.Float alpha);
                           ("k", Json.Int k);
                           ("error", Json.String msg);
                         ])
                     quarantined) );
            ]
      | Error msg -> Protocol.Resp_error msg)
  | Protocol.Lease { worker } -> (
      conn_worker := Some worker;
      match
        try Scheduler.lease scheduler ~worker
        with Ncg_fault.Inject.Fault _ as e ->
          (* an injected lease fault answers this poll empty; the
             worker simply polls again *)
          if Events.active () then
            Events.emit ~severity:Events.Warn "service.lease_fault"
              [
                ("worker", Json.String worker);
                ("error", Json.String (Printexc.to_string e));
              ];
          Scheduler.Empty
      with
      | Scheduler.Empty ->
          Protocol.Resp_ok
            [
              ("task", Json.Null);
              ("draining", Json.Bool (Atomic.get stop_flag));
            ]
      | Scheduler.Rejected { state } ->
          Protocol.Resp_ok
            [
              ("task", Json.Null);
              ("rejected", Json.Bool true);
              ("state", Json.String state);
              ("draining", Json.Bool (Atomic.get stop_flag));
            ]
      | Scheduler.Granted task ->
          Protocol.Resp_ok
            [
              ( "task",
                Json.Obj
                  [
                    ("id", Json.Int task.Scheduler.task_id);
                    ("spec", Ncg.Sweep_spec.to_json task.Scheduler.spec);
                    ( "alpha",
                      Json.Float task.Scheduler.cell.Ncg.Experiment.alpha );
                    ("k", Json.Int task.Scheduler.cell.Ncg.Experiment.k);
                    ("attempts", Json.Int task.Scheduler.attempts);
                  ] );
            ])
  | Protocol.Complete { worker; task; result } -> (
      conn_worker := Some worker;
      match Scheduler.complete scheduler ~worker ~task result with
      | Ok () -> Protocol.Resp_ok []
      | Error msg -> Protocol.Resp_error msg)
  | Protocol.Fail { worker; task; error } -> (
      conn_worker := Some worker;
      match Scheduler.fail scheduler ~worker ~task ~error with
      | Ok () -> Protocol.Resp_ok []
      | Error msg -> Protocol.Resp_error msg)
  | Protocol.Ping { worker } -> (
      match Scheduler.heartbeat scheduler ~worker with
      | state, revoked ->
          Protocol.Resp_ok
            [
              ("state", Json.String state);
              ("revoked", Json.List (List.map (fun id -> Json.Int id) revoked));
            ]
      | exception (Ncg_fault.Inject.Fault _ as e) ->
          (* an injected heartbeat fault drops the beat: the worker
             stays silent this interval and the monitor takes over *)
          Protocol.Resp_error (Printexc.to_string e))
  | Protocol.Cancel { job } -> (
      match Scheduler.cancel scheduler ~job with
      | Ok (released, revoked) ->
          Protocol.Resp_ok
            [
              ("job", Json.Int job);
              ("released", Json.Int released);
              ("revoked", Json.Int revoked);
            ]
      | Error msg -> Protocol.Resp_error msg
      | exception (Ncg_fault.Inject.Fault _ as e) ->
          Protocol.Resp_error (Printexc.to_string e))
  | Protocol.Subscribe ->
      (* Reply first, then hand the channel to the pump: every event
         line after this acknowledgment reaches the subscriber. *)
      Protocol.send_line oc
        (Protocol.response_to_json (Protocol.Resp_ok [ ("subscribed", Json.Bool true) ]));
      let id = add_subscriber pump oc in
      ignore id;
      Protocol.Resp_ok [] (* sentinel, not sent — see handler *)
  | Protocol.Stats -> Protocol.Resp_ok (Scheduler.stats_fields scheduler)

let handler scheduler pump fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let conn_worker = ref None in
  let subscribed = ref false in
  let rec loop () =
    match Protocol.recv_line ic with
    | Ok None -> ()
    | Error msg ->
        (try
           Protocol.send_line oc
             (Protocol.response_to_json (Protocol.Resp_error msg))
         with Sys_error _ | Unix.Unix_error _ -> ());
        ()
    | Ok (Some j) -> (
        match Protocol.request_of_json j with
        | Error msg ->
            (try
               Protocol.send_line oc
                 (Protocol.response_to_json (Protocol.Resp_error msg))
             with Sys_error _ | Unix.Unix_error _ -> ());
            loop ()
        | Ok Protocol.Subscribe ->
            ignore
              (handle_request scheduler pump conn_worker oc Protocol.Subscribe);
            subscribed := true;
            (* Drain (and ignore) anything else the subscriber sends;
               EOF ends the stream. The pump owns the out channel now. *)
            let rec drain () =
              match input_line ic with
              | _ -> drain ()
              | exception (End_of_file | Sys_error _) -> ()
            in
            drain ()
        | Ok req ->
            let resp = handle_request scheduler pump conn_worker oc req in
            (try Protocol.send_line oc (Protocol.response_to_json resp)
             with Sys_error _ | Unix.Unix_error _ -> ());
            loop ())
  in
  (try loop () with Sys_error _ | Unix.Unix_error _ -> ());
  (* A dropped worker connection is a worker crash: its leases go back
     to pending immediately. *)
  (match !conn_worker with
  | Some worker ->
      let requeued = Scheduler.worker_lost scheduler ~worker in
      if requeued > 0 && Events.active () then
        Events.emit ~severity:Events.Warn "service.worker_lost"
          [ ("worker", Json.String worker); ("requeued", Json.Int requeued) ]
  | None -> ());
  if not !subscribed then
    (* Subscribers' channels are closed by the pump when it drops them. *)
    try close_out oc with Sys_error _ | Unix.Unix_error _ -> ()

(* --- Serve loop ---------------------------------------------------------- *)

let serve (config : config) scheduler listen_fd =
  Atomic.set stop_flag false;
  (* Writing to a subscriber that vanished must not kill the daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let pump = start_pump config.events_file in
  if Events.active () then
    Events.emit "service.start"
      [
        ("addr", Json.String (Protocol.addr_to_string config.addr));
        ("workers", Json.Int config.workers);
      ];
  (* The accept loop (and its handler threads) run in the main domain;
     arm it so daemon-side sites — service.accept, service.dispatch,
     queue.lease — obey an installed plan. *)
  Ncg_fault.Inject.arm ~scope:0;
  let worker_domains =
    List.init config.workers (fun i ->
        Domain.spawn (fun () ->
            worker_loop
              ~name:(Printf.sprintf "domain-%d" i)
              ~poll_ms:config.worker_poll_ms scheduler))
  in
  let handlers = ref [] in
  (* Live connection fds, so shutdown can interrupt handler threads
     parked in blocking reads — close(2) would leave them blocked
     forever, shutdown(2) EOFs them. *)
  let conns = ref [] in
  let conns_mutex = Mutex.create () in
  let register fd =
    Mutex.lock conns_mutex;
    conns := fd :: !conns;
    Mutex.unlock conns_mutex
  in
  let unregister fd =
    Mutex.lock conns_mutex;
    conns := List.filter (fun f -> f <> fd) !conns;
    Mutex.unlock conns_mutex
  in
  let saw_job = ref false in
  let rec accept_loop () =
    if Atomic.get stop_flag then ()
    else begin
      Scheduler.tick scheduler;
      (if config.drain then
         if (not !saw_job) && not (Scheduler.idle scheduler) then
           saw_job := true
         else if !saw_job && Scheduler.idle scheduler then shutdown ());
      let readable, _, _ =
        try Unix.select [ listen_fd ] [] [] (float_of_int config.tick_ms /. 1000.)
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      (match readable with
      | [] -> ()
      | _ :: _ -> (
          match Unix.accept ~cloexec:true listen_fd with
          | exception Unix.Unix_error _ -> ()
          | fd, _ -> (
              match Ncg_fault.Inject.(hit service_accept) with
              | () ->
                  register fd;
                  handlers :=
                    Thread.create
                      (fun () ->
                        Fun.protect
                          ~finally:(fun () -> unregister fd)
                          (fun () -> handler scheduler pump fd))
                      ()
                    :: !handlers
              | exception Ncg_fault.Inject.Fault _ ->
                  (* injected accept fault: drop the connection *)
                  (try Unix.close fd with Unix.Unix_error _ -> ()))));
      accept_loop ()
    end
  in
  accept_loop ();
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (match config.addr with
  | Protocol.Unix_sock path -> (
      try Sys.remove path with Sys_error _ -> ())
  | Protocol.Tcp _ -> ());
  List.iter Domain.join worker_domains;
  if Events.active () then Events.emit "service.stop" [];
  (* Ordering matters: first let the pump deliver every emitted event
     (including service.stop) to subscribers, then shutdown(2) the
     remaining connections so handler threads blocked in read wake with
     EOF, then join them, and only then close the subscriber channels
     they were streaming to. *)
  drain_pump pump;
  Mutex.lock conns_mutex;
  let open_conns = !conns in
  Mutex.unlock conns_mutex;
  List.iter
    (fun fd ->
      try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    open_conns;
  List.iter
    (fun th -> try Thread.join th with Sys_error _ -> ())
    !handlers;
  close_subscribers pump
