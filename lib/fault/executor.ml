module Clock = Ncg_obs.Clock

type kind = Timeout | Interrupted | Crashed

let kind_to_string = function
  | Timeout -> "timeout"
  | Interrupted -> "interrupted"
  | Crashed -> "crashed"

type failure = { index : int; kind : kind; exn_text : string; exn : exn }

let classify = function
  | Cancel.Timed_out _ -> Timeout
  | Cancel.Interrupted _ -> Interrupted
  | _ -> Crashed

let map ?(domains = 1) ?deadline_ns ?(on_quarantine = fun (_ : failure) -> ())
    f n =
  if n = 0 then [||]
  else begin
    let domains = max 1 (min domains n) in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    (* Watchdog slots: when worker [w] starts a task it publishes the
       start time; the watchdog flags [cancels.(w)] once the task has
       been running past the deadline, and the task's next cooperative
       checkpoint raises. *)
    let busy_since = Array.init domains (fun _ -> Atomic.make 0L) in
    let cancels = Array.init domains (fun _ -> Atomic.make false) in
    let stop_watchdog = Atomic.make false in
    let watchdog =
      match deadline_ns with
      | None -> None
      | Some d ->
          Some
            (Domain.spawn (fun () ->
                 let period =
                   Float.min 0.05
                     (Float.max 0.001 (Int64.to_float d *. 1e-9 /. 8.))
                 in
                 while not (Atomic.get stop_watchdog) do
                   Unix.sleepf period;
                   let now = Clock.now_ns () in
                   for w = 0 to domains - 1 do
                     let since = Atomic.get busy_since.(w) in
                     if since <> 0L && Int64.compare (Int64.sub now since) d > 0
                     then Atomic.set cancels.(w) true
                   done
                 done))
    in
    let run_task w i =
      Atomic.set cancels.(w) false;
      Atomic.set busy_since.(w) (Clock.now_ns ());
      let outcome =
        match
          Cancel.with_control ?timeout_ns:deadline_ns ~cancel:cancels.(w)
            (fun () -> f ~index:i)
        with
        | v -> Ok v
        | exception e -> Error e
      in
      Atomic.set busy_since.(w) 0L;
      results.(i) <-
        Some
          (Result.map_error
             (fun e ->
               let fl =
                 {
                   index = i;
                   kind = classify e;
                   exn_text = Printexc.to_string e;
                   exn = e;
                 }
               in
               on_quarantine fl;
               fl)
             outcome)
    in
    let worker_error : (int * exn) option Atomic.t = Atomic.make None in
    let worker w =
      (* run_task catches all task exceptions; anything escaping here is
         an executor/on_quarantine bug — record the lowest-worker one and
         re-raise it after the join so it is never swallowed. *)
      try
        let rec loop () =
          if Cancel.shutdown_requested () = None then begin
            let i = Atomic.fetch_and_add next 1 in
            if i < n then begin
              run_task w i;
              loop ()
            end
          end
        in
        loop ()
      with e ->
        let rec record () =
          let cur = Atomic.get worker_error in
          let better = match cur with None -> true | Some (w', _) -> w < w' in
          if better && not (Atomic.compare_and_set worker_error cur (Some (w, e)))
          then record ()
        in
        record ()
    in
    let spawned =
      Array.init (domains - 1) (fun k ->
          Domain.spawn (fun () -> worker (k + 1)))
    in
    worker 0;
    Array.iter Domain.join spawned;
    (match watchdog with
    | None -> ()
    | Some d ->
        Atomic.set stop_watchdog true;
        Domain.join d);
    (match Atomic.get worker_error with
    | Some (_, e) -> raise e
    | None -> ());
    Array.mapi
      (fun i -> function
        | Some r -> r
        | None ->
            let s = Option.value (Cancel.shutdown_requested ()) ~default:0 in
            Error
              {
                index = i;
                kind = Interrupted;
                exn_text = "not started: shutdown requested";
                exn = Cancel.Interrupted s;
              })
      results
  end
