(* ncg_submit: sweep client for ncg_served.

   Builds a Sweep_spec from the same flags ncg_experiment takes, submits
   it over the wire, polls until the job completes, and prints the CSV —
   byte-identical rows to `ncg_experiment` over the same grid, whatever
   mix of cache hits, dedup and worker crashes produced them. Exit
   codes: 0 clean, 1 connection/protocol trouble, 2 usage,
   3 completed with quarantined cells, 4 timed out (--timeout-ms, the
   job is cancelled daemon-side), 130 interrupted (Ctrl-C sends cancel
   for the unfinished cells before closing the socket). *)

open Cmdliner
module Json = Ncg_obs.Json
module Protocol = Ncg_service.Protocol

let die fmt = Printf.ksprintf (fun msg ->
    Printf.eprintf "ncg_submit: %s\n%!" msg;
    exit 1) fmt

let connect_or_die spec =
  match Protocol.parse_addr spec with
  | Error msg ->
      Printf.eprintf "ncg_submit: %s\n%!" msg;
      exit 2
  | Ok addr -> (
      try Protocol.connect addr
      with Unix.Unix_error (e, _, _) ->
        die "cannot connect to %s: %s" (Protocol.addr_to_string addr)
          (Unix.error_message e))

let rpc ic oc req =
  Protocol.send_line oc (Protocol.request_to_json req);
  match Protocol.recv_line ic with
  | Ok (Some j) -> (
      match Protocol.response_of_json j with
      | Ok r -> r
      | Error msg -> die "bad response: %s" msg)
  | Ok None -> die "daemon hung up"
  | Error msg -> die "%s" msg

(* Decodes the fields of an ok reply; a malformed reply exits 1. *)
let reply fields decode =
  match Json.decode ~what:"response" decode (Json.Obj fields) with
  | Ok v -> v
  | Error msg -> die "bad response: %s" msg

(* --- subscribe mode: stream raw event lines to stdout ------------------- *)

let subscribe_main ic oc =
  (match rpc ic oc Protocol.Subscribe with
  | Protocol.Resp_ok _ -> ()
  | Protocol.Resp_error msg -> die "subscribe rejected: %s" msg);
  let rec stream () =
    match input_line ic with
    | line ->
        print_endline line;
        stream ()
    | exception End_of_file -> ()
  in
  stream ();
  exit 0

(* --- status mode --------------------------------------------------------- *)

let status_main ic oc job =
  match rpc ic oc (Protocol.Status { job }) with
  | Protocol.Resp_error msg -> die "%s" msg
  | Protocol.Resp_ok fields ->
      print_endline (Json.to_string (Json.Obj fields));
      exit 0

(* --- stats mode ---------------------------------------------------------- *)

let stats_main ic oc =
  match rpc ic oc Protocol.Stats with
  | Protocol.Resp_error msg -> die "%s" msg
  | Protocol.Resp_ok fields ->
      print_string (Json.to_string_pretty (Json.Obj fields));
      exit 0

(* --- cancel mode --------------------------------------------------------- *)

let cancel_main ic oc job =
  match rpc ic oc (Protocol.Cancel { job }) with
  | Protocol.Resp_error msg -> die "%s" msg
  | Protocol.Resp_ok fields ->
      print_endline (Json.to_string (Json.Obj fields));
      exit 0

(* --- submit mode --------------------------------------------------------- *)

(* Set by the SIGINT handler; the wait loop polls it and turns it into
   a cancel verb, so Ctrl-C releases the job's queued cells instead of
   silently abandoning them to the daemon. *)
let interrupted = Atomic.make false

let submit_main ic oc spec deadline_ms timeout_ms poll_ms quiet =
  (match Ncg.Sweep_spec.validate spec with
  | Ok () -> ()
  | Error msg ->
      Printf.eprintf "ncg_submit: %s\n%!" msg;
      exit 2);
  let job, total =
    match rpc ic oc (Protocol.Submit { spec; deadline_ms }) with
    | Protocol.Resp_error msg -> die "submit rejected: %s" msg
    | Protocol.Resp_ok fields ->
        let int name = reply fields (Json.field name Json.int) in
        if not quiet then
          Printf.eprintf
            "ncg_submit: job %d accepted (%d cells: %d cached, %d deduped, %d queued)\n%!"
            (int "job") (int "total") (int "cached") (int "deduped") (int "queued");
        (int "job", int "total")
  in
  (try
     ignore
       (Sys.signal Sys.sigint
          (Sys.Signal_handle (fun _ -> Atomic.set interrupted true)))
   with Invalid_argument _ | Sys_error _ -> ());
  let give_up_ns =
    Option.map
      (fun ms ->
        Int64.add (Ncg_obs.Clock.now_ns ())
          (Int64.of_float (float_of_int ms *. 1e6)))
      timeout_ms
  in
  let cancel_and_exit code reason =
    Ncg_obs.Events.progress_done ();
    (match rpc ic oc (Protocol.Cancel { job }) with
    | Protocol.Resp_ok _ ->
        Printf.eprintf "ncg_submit: job %d cancelled (%s)\n%!" job reason
    | Protocol.Resp_error msg ->
        Printf.eprintf "ncg_submit: cancel after %s failed: %s\n%!" reason msg);
    (try close_out oc with Sys_error _ -> ());
    exit code
  in
  let rec wait () =
    if Atomic.get interrupted then cancel_and_exit 130 "interrupt";
    (match give_up_ns with
    | Some d when Int64.compare (Ncg_obs.Clock.now_ns ()) d > 0 ->
        cancel_and_exit 4
          (Printf.sprintf "timeout after %d ms" (Option.get timeout_ms))
    | _ -> ());
    match
      try `Reply (rpc ic oc (Protocol.Status { job }))
      with Sys_error _ when Atomic.get interrupted -> `Interrupted
    with
    | `Interrupted -> cancel_and_exit 130 "interrupt"
    | `Reply (Protocol.Resp_error msg) -> die "%s" msg
    | `Reply (Protocol.Resp_ok fields) -> (
        match Json.opt (Json.field "state" Json.string) (Json.Obj fields) with
        | Some "running" ->
            if not quiet then
              Ncg_obs.Events.progress
                (Printf.sprintf "job %d: %d/%d cells" job
                   (reply fields (Json.field "done" Json.int))
                   total);
            Unix.sleepf (float_of_int poll_ms /. 1000.);
            wait ()
        | Some "done" -> Ncg_obs.Events.progress_done ()
        | Some "expired" ->
            Ncg_obs.Events.progress_done ();
            die "job %d expired before completing" job
        | Some "cancelled" ->
            Ncg_obs.Events.progress_done ();
            die "job %d was cancelled" job
        | _ -> die "unrecognized job state")
  in
  wait ();
  match rpc ic oc (Protocol.Results { job }) with
  | Protocol.Resp_error msg -> die "%s" msg
  | Protocol.Resp_ok fields ->
      let header, rows, quarantined =
        reply fields (fun j ->
            ( Json.field "header" Json.string j,
              Json.field "rows" (Json.list Json.string) j,
              Option.value ~default:[]
                (Json.opt (Json.field "quarantined" (Json.list Fun.id)) j) ))
      in
      print_endline header;
      List.iter print_endline rows;
      List.iter
        (fun q ->
          Printf.eprintf "ncg_submit: quarantined: %s\n%!" (Json.to_string q))
        quarantined;
      if quarantined <> [] then exit 3 else exit 0

(* --- CLI ----------------------------------------------------------------- *)

let run connect graph_class n p alphas ks trials seed budget move_budget
    no_probes deadline_ms timeout_ms poll_ms status_job cancel_job subscribe
    stats quiet =
  if quiet then Ncg_obs.Events.set_progress false;
  let ic, oc = connect_or_die connect in
  let hello =
    Protocol.Hello
      {
        client = Printf.sprintf "ncg_submit-%d" (Unix.getpid ());
        worker = false;
      }
  in
  (match rpc ic oc hello with
  | Protocol.Resp_ok _ -> ()
  | Protocol.Resp_error msg -> die "hello rejected: %s" msg);
  if subscribe then subscribe_main ic oc
  else if stats then stats_main ic oc
  else
    match (status_job, cancel_job) with
    | Some job, _ -> status_main ic oc job
    | None, Some job -> cancel_main ic oc job
    | None, None ->
        let spec =
          {
            Ncg.Sweep_spec.graph_class;
            n;
            p;
            alphas =
              (if alphas = [] then Ncg.Sweep_spec.default.Ncg.Sweep_spec.alphas
               else alphas);
            ks =
              (if ks = [] then Ncg.Sweep_spec.default.Ncg.Sweep_spec.ks
               else ks);
            trials;
            seed;
            budget;
            move_budget;
            probes = not no_probes;
          }
        in
        submit_main ic oc spec deadline_ms timeout_ms poll_ms quiet

let connect =
  Arg.(value & opt string "unix:ncg.sock" & info [ "connect" ] ~docv:"ADDR"
         ~doc:"Daemon address (unix:PATH or tcp:HOST:PORT).")

let graph_class =
  Arg.(value & opt string "tree" & info [ "class" ] ~docv:"CLASS"
         ~doc:"Initial graph class: tree, gnp, ba or ws.")

let n = Arg.(value & opt int 50 & info [ "n" ] ~docv:"N" ~doc:"Players.")

let p =
  Arg.(value & opt float 0.1 & info [ "p" ] ~docv:"P"
         ~doc:"Edge probability (gnp).")

let alphas =
  Arg.(value & opt (list float) [] & info [ "alphas" ] ~docv:"LIST"
         ~doc:"Alpha grid.")

let ks =
  Arg.(value & opt (list int) [] & info [ "ks" ] ~docv:"LIST"
         ~doc:"View radius grid.")

let trials =
  Arg.(value & opt int 5 & info [ "trials" ] ~docv:"T" ~doc:"Seeds per cell.")

let seed = Arg.(value & opt int 2014 & info [ "seed" ] ~doc:"Base seed.")

let budget =
  Arg.(value & opt int 50_000 & info [ "budget" ]
         ~doc:"Branch-and-bound node budget per best response.")

let move_budget =
  Arg.(value & opt int 1_000_000 & info [ "move-budget" ] ~docv:"N"
         ~doc:"Cooperative checkpoint polls allowed per player move.")

let no_probes =
  Arg.(value & flag & info [ "no-probes" ]
         ~doc:"Skip round-level probe collection (changes cache keys).")

let deadline_ms =
  Arg.(value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS"
         ~doc:"Give the job up if not done within MS of submission.")

let timeout_ms =
  Arg.(value & opt (some int) None & info [ "timeout-ms" ] ~docv:"MS"
         ~doc:"Give up waiting after MS: cancel the job daemon-side \
               (releasing its queued cells, revoking its leases) and \
               exit 4.")

let poll_ms =
  Arg.(value & opt int 200 & info [ "poll-ms" ] ~docv:"MS"
         ~doc:"Status poll period while waiting.")

let status_job =
  Arg.(value & opt (some int) None & info [ "status" ] ~docv:"JOB"
         ~doc:"Print another job's status as JSON and exit.")

let cancel_job =
  Arg.(value & opt (some int) None & info [ "cancel" ] ~docv:"JOB"
         ~doc:"Cancel a running job and exit.")

let subscribe =
  Arg.(value & flag & info [ "subscribe" ]
         ~doc:"Stream the daemon's event log to stdout until killed.")

let stats =
  Arg.(value & flag & info [ "stats" ]
         ~doc:"Print daemon statistics as JSON and exit.")

let quiet =
  Arg.(value & flag & info [ "quiet" ]
         ~doc:"No submission banner, no progress line.")

let cmd =
  let doc = "submit sweeps to a running ncg_served daemon" in
  Cmd.v
    (Cmd.info "ncg_submit" ~doc)
    Term.(const run $ connect $ graph_class $ n $ p $ alphas $ ks $ trials
          $ seed $ budget $ move_budget $ no_probes $ deadline_ms $ timeout_ms
          $ poll_ms $ status_job $ cancel_job $ subscribe $ stats $ quiet)

let () = exit (Cmd.eval cmd)
