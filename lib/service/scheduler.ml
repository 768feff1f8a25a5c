module Json = Ncg_obs.Json
module Events = Ncg_obs.Events
module Metrics = Ncg_obs.Metrics
module Store = Ncg_store.Store
module Work_queue = Ncg_store.Work_queue
module Cache_key = Ncg_store.Cache_key
module Sweep_spec = Ncg.Sweep_spec
module Experiment = Ncg.Experiment

type config = {
  store_dir : string;
  max_retries : int;
  default_deadline_ms : int option;
  max_cells : int option;
  heartbeat_timeout_ms : int;
  quarantine_failures : int;
  quarantine_cooldown_ms : int;
}

type job_state = Running | Done | Expired | Cancelled

type job = {
  id : int;
  client : string;
  spec : Sweep_spec.t;
  cells : Experiment.cell array;
  keys : string array;  (** canonical key bytes, index-aligned with cells *)
  results : Experiment.cell_result option array;
  mutable quarantined : (int * string) list;  (** (cell index, error) *)
  mutable remaining : int;
  deadline_ns : int64 option;  (** absolute, monotonic clock *)
  mutable state : job_state;
}

type task = {
  task_id : int;
  spec : Sweep_spec.t;
  cell : Experiment.cell;
  attempts : int;
  revoked : bool Atomic.t;
}

type grant = Granted of task | Empty | Rejected of { state : string }

type leased = { l_key : Cache_key.t; l_spec : Sweep_spec.t;
                l_cell : Experiment.cell; l_worker : string;
                l_revoked : bool Atomic.t }

(* Client name credited with work recovered from a previous daemon's
   queue log: its submitting client died with that process. *)
let recovered_client = "(recovered)"

type t = {
  config : config;
  store : Store.t;
  queue : Work_queue.t;
  pool : Worker_pool.t;
  mutex : Mutex.t;
  jobs : (int, job) Hashtbl.t;
  mutable next_job : int;
  (* Cross-client dedup registry. [waiters]: canonical key -> (job id,
     cell index) list still expecting that cell. [inflight]: canonical
     key -> queue entry id, present from enqueue to terminal state.
     [leased_tasks]: queue id -> decoded task while leased. *)
  waiters : (string, (int * int) list ref) Hashtbl.t;
  inflight : (string, int) Hashtbl.t;
  leased_tasks : (int, leased) Hashtbl.t;
  (* Fairness: queue entry id -> enqueuing client, and the round-robin
     ring of client names (first-enqueue order). *)
  entry_client : (int, string) Hashtbl.t;
  mutable ring : string list;
  (* Lease revocations not yet delivered to a remote worker; drained by
     its next heartbeat reply. *)
  revoked_wire : (string, int list ref) Hashtbl.t;
  (* Plain counters for the stats verb — [Metrics] counters only record
     under a collector, a daemon wants always-on numbers. *)
  mutable n_requests : int;
  mutable n_cache_hits : int;
  mutable n_dedup_hits : int;
  mutable n_completions : int;
  mutable n_requeues : int;
  mutable n_quarantines : int;
  mutable n_heartbeats : int;
  mutable n_lease_expiries : int;
  mutable n_worker_quarantines : int;
  mutable n_cancels : int;
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* --- Task payloads ------------------------------------------------------- *)

let task_schema = Ncg_obs.Schema.service_task

let task_payload spec (cell : Experiment.cell) =
  Json.to_string
    (Json.Obj
       [
         ("schema", Json.String task_schema);
         ("spec", Sweep_spec.to_json spec);
         ("alpha", Json.Float cell.Experiment.alpha);
         ("k", Json.Int cell.Experiment.k);
       ])

let task_of_payload payload =
  Result.bind (Json.of_string payload)
    (Json.decode ~what:"task" (fun j ->
         Json.schema task_schema j;
         let alpha = Json.field "alpha" Json.number j in
         let cell = { Experiment.alpha; k = Json.field "k" Json.int j } in
         (Json.field "spec" (Json.nested Sweep_spec.of_json) j, cell)))

(* --- Worker pool events -------------------------------------------------- *)

let note_transition t name tr =
  match (tr : Worker_pool.transition) with
  | Worker_pool.Noted -> ()
  | Worker_pool.Registered ->
      if Events.active () then
        Events.emit "service.worker_registered"
          [ ("worker", Json.String name) ]
  | Worker_pool.Readmitted ->
      if Events.active () then
        Events.emit ~severity:Events.Warn "service.worker_readmitted"
          [ ("worker", Json.String name) ]
  | Worker_pool.Recovered ->
      if Events.active () then
        Events.emit "service.worker_recovered" [ ("worker", Json.String name) ]
  | Worker_pool.Suspected ->
      if Events.active () then
        Events.emit ~severity:Events.Warn "service.worker_suspect"
          [ ("worker", Json.String name) ]
  | Worker_pool.Sick ->
      t.n_worker_quarantines <- t.n_worker_quarantines + 1;
      Metrics.(incr service_worker_quarantines);
      if Events.active () then
        Events.emit ~severity:Events.Error "service.worker_quarantined"
          [ ("worker", Json.String name) ]

(* --- Lifecycle ----------------------------------------------------------- *)

let create config =
  let store = Store.open_dir config.store_dir in
  let queue_path = Filename.concat config.store_dir "queue.log" in
  let queue, recovery = Work_queue.openfile queue_path in
  let t =
    {
      config;
      store;
      queue;
      pool =
        Worker_pool.create
          {
            Worker_pool.heartbeat_timeout_ms = config.heartbeat_timeout_ms;
            quarantine_failures = config.quarantine_failures;
            quarantine_cooldown_ms = config.quarantine_cooldown_ms;
          };
      mutex = Mutex.create ();
      jobs = Hashtbl.create 16;
      next_job = 0;
      waiters = Hashtbl.create 64;
      inflight = Hashtbl.create 64;
      leased_tasks = Hashtbl.create 16;
      entry_client = Hashtbl.create 64;
      ring = [];
      revoked_wire = Hashtbl.create 8;
      n_requests = 0;
      n_cache_hits = 0;
      n_dedup_hits = 0;
      n_completions = 0;
      n_requeues = 0;
      n_quarantines = 0;
      n_heartbeats = 0;
      n_lease_expiries = 0;
      n_worker_quarantines = 0;
      n_cancels = 0;
    }
  in
  (* Re-adopt work recovered from the log: entries of a previous daemon
     whose clients are gone. Completed results will land in the store
     (warming it for resubmissions); entries whose payload no longer
     decodes (schema drift) are dropped. *)
  List.iter
    (fun (e : Work_queue.entry) ->
      match task_of_payload e.Work_queue.payload with
      | Ok (spec, cell) ->
          let key = Sweep_spec.cache_key spec cell in
          Hashtbl.replace t.inflight (Cache_key.to_string key) e.Work_queue.id;
          Hashtbl.replace t.entry_client e.Work_queue.id recovered_client
      | Error _ -> Work_queue.cancel queue ~id:e.Work_queue.id)
    (Work_queue.pending_entries queue);
  if Hashtbl.length t.entry_client > 0 then t.ring <- [ recovered_client ];
  if Events.active () then
    Events.emit "service.queue_recovered"
      [
        ("replayed", Json.Int recovery.Work_queue.replayed);
        ("reclaimed", Json.Int recovery.Work_queue.reclaimed);
        ("dropped_bytes", Json.Int recovery.Work_queue.dropped_bytes);
        ("pending", Json.Int (Work_queue.pending queue));
      ];
  t

let close t =
  locked t (fun () ->
      Work_queue.close t.queue;
      Store.close t.store)

let store t = t.store

let register_worker ?(local = false) t ~worker =
  locked t (fun () ->
      let now = Ncg_obs.Clock.now_ns () in
      note_transition t worker
        (Worker_pool.touch t.pool ~name:worker ~local ~now))

(* --- Job resolution ------------------------------------------------------ *)

let emit_job_done job =
  if Events.active () then
    Events.emit "service.job_done"
      [
        ("job", Json.Int job.id);
        ("client", Json.String job.client);
        ("total", Json.Int (Array.length job.cells));
        ("quarantined", Json.Int (List.length job.quarantined));
      ]

let resolve_cell job idx outcome =
  (match outcome with
  | Ok r -> job.results.(idx) <- Some r
  | Error msg -> job.quarantined <- (idx, msg) :: job.quarantined);
  job.remaining <- job.remaining - 1;
  if job.remaining = 0 && job.state = Running then begin
    job.state <- Done;
    emit_job_done job
  end

(* Hand [outcome] to every job still waiting on [key]. *)
let resolve_waiters t key outcome =
  match Hashtbl.find_opt t.waiters key with
  | None -> ()
  | Some lst ->
      Hashtbl.remove t.waiters key;
      List.iter
        (fun (job_id, idx) ->
          match Hashtbl.find_opt t.jobs job_id with
          | Some job when job.state = Running -> resolve_cell job idx outcome
          | _ -> ())
        (List.rev !lst)

(* --- Submit -------------------------------------------------------------- *)

type submit_info = {
  job : int;
  total : int;
  cached : int;
  deduped : int;
  queued : int;
}

let ring_add t client =
  if not (List.exists (String.equal client) t.ring) then
    t.ring <- t.ring @ [ client ]

let submit t ~client ?deadline_ms spec =
  locked t (fun () ->
      t.n_requests <- t.n_requests + 1;
      match Sweep_spec.validate spec with
      | Error msg -> Error msg
      | Ok () -> (
          let cells = Array.of_list (Sweep_spec.cells spec) in
          let total = Array.length cells in
          match t.config.max_cells with
          | Some cap when total > cap ->
              Error
                (Printf.sprintf "grid has %d cells, server caps jobs at %d"
                   total cap)
          | _ ->
              let deadline_ms =
                match deadline_ms with
                | Some _ as d -> d
                | None -> t.config.default_deadline_ms
              in
              let deadline_ns =
                Option.map
                  (fun ms ->
                    Int64.add (Ncg_obs.Clock.now_ns ())
                      (Int64.of_float (float_of_int ms *. 1e6)))
                  deadline_ms
              in
              let keys = Array.map (Sweep_spec.cache_key spec) cells in
              let job =
                {
                  id = t.next_job;
                  client;
                  spec;
                  cells;
                  keys = Array.map Cache_key.to_string keys;
                  results = Array.make total None;
                  quarantined = [];
                  remaining = total;
                  deadline_ns;
                  state = Running;
                }
              in
              t.next_job <- t.next_job + 1;
              Hashtbl.replace t.jobs job.id job;
              let cached = ref 0 and deduped = ref 0 and queued = ref 0 in
              Array.iteri
                (fun idx key ->
                  let key_s = job.keys.(idx) in
                  match Experiment.store_lookup t.store key with
                  | Some r ->
                      incr cached;
                      t.n_cache_hits <- t.n_cache_hits + 1;
                      Metrics.(incr service_cache_hits);
                      resolve_cell job idx (Ok r)
                  | None ->
                      let waiters =
                        match Hashtbl.find_opt t.waiters key_s with
                        | Some lst -> lst
                        | None ->
                            let lst = ref [] in
                            Hashtbl.replace t.waiters key_s lst;
                            lst
                      in
                      waiters := (job.id, idx) :: !waiters;
                      if Hashtbl.mem t.inflight key_s then begin
                        incr deduped;
                        t.n_dedup_hits <- t.n_dedup_hits + 1;
                        Metrics.(incr service_dedup_hits)
                      end
                      else begin
                        let payload = task_payload spec cells.(idx) in
                        let id = Work_queue.enqueue t.queue ~payload in
                        Hashtbl.replace t.inflight key_s id;
                        Hashtbl.replace t.entry_client id client;
                        incr queued
                      end)
                keys;
              if !queued > 0 then ring_add t client;
              if Events.active () then
                Events.emit "service.submit"
                  [
                    ("job", Json.Int job.id);
                    ("client", Json.String client);
                    ("total", Json.Int total);
                    ("cached", Json.Int !cached);
                    ("deduped", Json.Int !deduped);
                    ("queued", Json.Int !queued);
                    ("queue_depth", Json.Int (Work_queue.pending t.queue));
                  ];
              Ok
                {
                  job = job.id;
                  total;
                  cached = !cached;
                  deduped = !deduped;
                  queued = !queued;
                }))

(* --- Introspection ------------------------------------------------------- *)

let job_state_string = function
  | Running -> "running"
  | Done -> "done"
  | Expired -> "expired"
  | Cancelled -> "cancelled"

let status t ~job =
  locked t (fun () ->
      t.n_requests <- t.n_requests + 1;
      Option.map
        (fun j ->
          [
            ("job", Json.Int j.id);
            ("state", Json.String (job_state_string j.state));
            ("total", Json.Int (Array.length j.cells));
            ("done", Json.Int (Array.length j.cells - j.remaining));
            ("quarantined", Json.Int (List.length j.quarantined));
          ])
        (Hashtbl.find_opt t.jobs job))

let results t ~job =
  locked t (fun () ->
      t.n_requests <- t.n_requests + 1;
      match Hashtbl.find_opt t.jobs job with
      | None -> Error (Printf.sprintf "unknown job %d" job)
      | Some j when j.state = Running ->
          Error
            (Printf.sprintf "job %d still running (%d/%d cells)" job
               (Array.length j.cells - j.remaining)
               (Array.length j.cells))
      | Some j when j.state = Expired ->
          Error (Printf.sprintf "job %d expired before completing" job)
      | Some j when j.state = Cancelled ->
          Error (Printf.sprintf "job %d was cancelled" job)
      | Some j ->
          let rows = ref [] in
          for idx = Array.length j.cells - 1 downto 0 do
            match j.results.(idx) with
            | Some r -> rows := Sweep_spec.csv_row j.spec r :: !rows
            | None -> ()
          done;
          let quarantined =
            List.rev_map
              (fun (idx, msg) ->
                (j.cells.(idx).Experiment.alpha, j.cells.(idx).Experiment.k, msg))
              j.quarantined
          in
          Ok (!rows, quarantined))

(* --- Worker plane -------------------------------------------------------- *)

let client_of_entry t id =
  match Hashtbl.find_opt t.entry_client id with
  | Some c -> c
  | None -> recovered_client

let client_live t c =
  (Hashtbl.fold [@lint.allow "D3" "existence is order-independent"])
    (fun _ c' acc -> acc || String.equal c' c)
    t.entry_client false

(* Round-robin across clients with pending cells: walk the ring from
   the front, grant the first client that still has pending work its
   oldest cell, and rotate that client to the back. Clients whose
   entries are all resolved fall out of the ring (a later submit
   re-adds them); clients with work merely in flight keep their turn.
   A huge early submission therefore no longer starves later small
   ones — each client with pending cells gets every k-th lease. *)
let pick_fair t =
  let pending = Work_queue.pending_entries t.queue in
  match pending with
  | [] -> None
  | first :: _ ->
      let oldest_of c =
        List.find_opt
          (fun (e : Work_queue.entry) ->
            String.equal (client_of_entry t e.Work_queue.id) c)
          pending
      in
      let rec go kept = function
        | [] ->
            (* no ring client owns pending work (mapping lost): fall
               back to global FIFO so nothing is stranded *)
            t.ring <- List.rev kept;
            Some first.Work_queue.id
        | c :: rest -> (
            match oldest_of c with
            | Some e ->
                t.ring <- List.rev_append kept rest @ [ c ];
                Some e.Work_queue.id
            | None -> if client_live t c then go (c :: kept) rest else go kept rest)
      in
      go [] t.ring

let pool_state_string t worker =
  match Worker_pool.state_of t.pool ~name:worker with
  | Some s -> Worker_pool.state_to_string s
  | None -> "unknown"

let lease ?(local = false) t ~worker =
  locked t (fun () ->
      t.n_requests <- t.n_requests + 1;
      let now = Ncg_obs.Clock.now_ns () in
      note_transition t worker (Worker_pool.touch t.pool ~name:worker ~local ~now);
      if not (Worker_pool.can_lease t.pool ~name:worker) then
        Rejected { state = pool_state_string t worker }
      else begin
        Ncg_fault.Inject.(hit service_dispatch);
        match pick_fair t with
        | None -> Empty
        | Some id -> (
            match Work_queue.lease_id t.queue ~worker ~id with
            | None -> Empty
            | Some entry -> (
                match task_of_payload entry.Work_queue.payload with
                | Error _ ->
                    (* Undecodable payloads were culled at [create]; one
                       here means in-memory corruption — drop the entry. *)
                    Work_queue.requeue t.queue ~id:entry.Work_queue.id;
                    Work_queue.cancel t.queue ~id:entry.Work_queue.id;
                    Hashtbl.remove t.entry_client entry.Work_queue.id;
                    Empty
                | Ok (spec, cell) ->
                    let key = Sweep_spec.cache_key spec cell in
                    let revoked = Atomic.make false in
                    Hashtbl.replace t.leased_tasks entry.Work_queue.id
                      { l_key = key; l_spec = spec; l_cell = cell;
                        l_worker = worker; l_revoked = revoked };
                    Worker_pool.note_lease t.pool ~name:worker;
                    if Events.active () then
                      Events.emit "service.lease"
                        [
                          ("task", Json.Int entry.Work_queue.id);
                          ("worker", Json.String worker);
                          ("alpha", Json.Float cell.Experiment.alpha);
                          ("k", Json.Int cell.Experiment.k);
                          ("attempts", Json.Int entry.Work_queue.attempts);
                        ];
                    Granted
                      {
                        task_id = entry.Work_queue.id;
                        spec;
                        cell;
                        attempts = entry.Work_queue.attempts;
                        revoked;
                      }))
      end)

let requeue_task t id (l : leased) reason =
  Work_queue.requeue t.queue ~id;
  Hashtbl.remove t.leased_tasks id;
  t.n_requeues <- t.n_requeues + 1;
  Metrics.(incr service_requeues);
  if Events.active () then
    Events.emit ~severity:Events.Warn "service.requeue"
      [
        ("task", Json.Int id);
        ("worker", Json.String l.l_worker);
        ("alpha", Json.Float l.l_cell.Experiment.alpha);
        ("k", Json.Int l.l_cell.Experiment.k);
        ("reason", Json.String reason);
      ]

let quarantine_task t id (l : leased) error =
  (* Terminal state for a queue entry that keeps failing: return it to
     pending, then cancel — both transitions are durable records, so a
     restarted daemon sees it as resolved, not as work. *)
  Work_queue.requeue t.queue ~id;
  Work_queue.cancel t.queue ~id;
  Hashtbl.remove t.leased_tasks id;
  Hashtbl.remove t.entry_client id;
  let key_s = Cache_key.to_string l.l_key in
  Hashtbl.remove t.inflight key_s;
  t.n_quarantines <- t.n_quarantines + 1;
  Metrics.(incr service_quarantines);
  if Events.active () then
    Events.emit ~severity:Events.Error "service.quarantine"
      [
        ("task", Json.Int id);
        ("alpha", Json.Float l.l_cell.Experiment.alpha);
        ("k", Json.Int l.l_cell.Experiment.k);
        ("error", Json.String error);
      ];
  resolve_waiters t key_s (Error error)

let complete t ~worker ~task result_json =
  locked t (fun () ->
      t.n_requests <- t.n_requests + 1;
      let now = Ncg_obs.Clock.now_ns () in
      note_transition t worker
        (Worker_pool.touch t.pool ~name:worker ~local:false ~now);
      match Hashtbl.find_opt t.leased_tasks task with
      | None -> Error (Printf.sprintf "task %d is not leased" task)
      | Some l when not (String.equal l.l_worker worker) ->
          Error
            (Printf.sprintf "task %d is leased to %S, not %S" task l.l_worker
               worker)
      | Some l -> (
          match Experiment.cell_result_of_json result_json with
          | Error msg ->
              requeue_task t task l ("undecodable result: " ^ msg);
              note_transition t worker
                (Worker_pool.note_failure t.pool ~name:worker ~now);
              Error (Printf.sprintf "task %d: undecodable result (%s)" task msg)
          | Ok r ->
              (* Single store write per distinct cell, by the daemon:
                 the store's inserts counter counts unique executions. *)
              Experiment.store_insert t.store l.l_key r;
              Work_queue.complete t.queue ~id:task;
              Hashtbl.remove t.leased_tasks task;
              Hashtbl.remove t.entry_client task;
              let key_s = Cache_key.to_string l.l_key in
              Hashtbl.remove t.inflight key_s;
              t.n_completions <- t.n_completions + 1;
              Metrics.(incr service_completions);
              note_transition t worker (Worker_pool.note_success t.pool ~name:worker);
              if Events.active () then
                Events.emit "service.complete"
                  [
                    ("task", Json.Int task);
                    ("worker", Json.String worker);
                    ("alpha", Json.Float l.l_cell.Experiment.alpha);
                    ("k", Json.Int l.l_cell.Experiment.k);
                    ("queue_depth", Json.Int (Work_queue.pending t.queue));
                  ];
              resolve_waiters t key_s (Ok r);
              Ok ()))

let fail t ~worker ~task ~error =
  locked t (fun () ->
      t.n_requests <- t.n_requests + 1;
      let now = Ncg_obs.Clock.now_ns () in
      note_transition t worker
        (Worker_pool.touch t.pool ~name:worker ~local:false ~now);
      match Hashtbl.find_opt t.leased_tasks task with
      | None -> Error (Printf.sprintf "task %d is not leased" task)
      | Some l when not (String.equal l.l_worker worker) ->
          Error
            (Printf.sprintf "task %d is leased to %S, not %S" task l.l_worker
               worker)
      | Some l ->
          let attempts = Work_queue.attempts t.queue ~id:task in
          if attempts > t.config.max_retries then
            quarantine_task t task l error
          else requeue_task t task l error;
          note_transition t worker
            (Worker_pool.note_failure t.pool ~name:worker ~now);
          Ok ())

let worker_lost t ~worker =
  locked t (fun () ->
      let ids = Work_queue.leases_of t.queue ~worker in
      List.iter
        (fun id ->
          match Hashtbl.find_opt t.leased_tasks id with
          | Some l -> requeue_task t id l "worker connection lost"
          | None ->
              (* leased directly through the queue (tests) — still
                 return it *)
              Work_queue.requeue t.queue ~id)
        ids;
      Worker_pool.drain t.pool ~name:worker;
      List.length ids)

(* --- Heartbeats ---------------------------------------------------------- *)

let heartbeat t ~worker =
  locked t (fun () ->
      t.n_requests <- t.n_requests + 1;
      (* A firing raise here drops the beat before any state changes:
         the worker stays silent this interval, exactly the failure the
         monitor exists to absorb. *)
      Ncg_fault.Inject.(hit service_heartbeat);
      let now = Ncg_obs.Clock.now_ns () in
      let tr = Worker_pool.heartbeat t.pool ~name:worker ~local:false ~now in
      t.n_heartbeats <- t.n_heartbeats + 1;
      Metrics.(incr service_heartbeats);
      note_transition t worker tr;
      let revoked =
        match Hashtbl.find_opt t.revoked_wire worker with
        | Some lst ->
            Hashtbl.remove t.revoked_wire worker;
            List.sort compare !lst
        | None -> []
      in
      (pool_state_string t worker, revoked))

(* --- Cancellation -------------------------------------------------------- *)

(* Detach [job] from every cell it still waits on; queue entries nobody
   else waits for are dropped. With [revoke], leased entries are
   resolved too: the durable requeue+cancel pair retires the queue
   entry, the in-process computation's revocation flag is set (tripping
   its next [Cancel] checkpoint), and remote owners learn via their
   next heartbeat reply. Without [revoke] (job expiry) leased cells are
   left to finish into the store. Returns (released, revoked). *)
let detach_job t job ~revoke =
  let released = ref 0 and revoked_n = ref 0 in
  Array.iteri
    (fun idx key_s ->
      if job.results.(idx) = None && not (List.mem_assoc idx job.quarantined)
      then
        match Hashtbl.find_opt t.waiters key_s with
        | None -> ()
        | Some lst ->
            lst :=
              List.filter
                (fun (jid, i) -> not (jid = job.id && i = idx))
                !lst;
            if !lst = [] then begin
              Hashtbl.remove t.waiters key_s;
              match Hashtbl.find_opt t.inflight key_s with
              | None -> ()
              | Some qid -> (
                  match Hashtbl.find_opt t.leased_tasks qid with
                  | None ->
                      Work_queue.cancel t.queue ~id:qid;
                      Hashtbl.remove t.entry_client qid;
                      Hashtbl.remove t.inflight key_s;
                      incr released
                  | Some l when revoke ->
                      Atomic.set l.l_revoked true;
                      (match Worker_pool.find t.pool l.l_worker with
                      | Some w when not w.Worker_pool.local ->
                          let pending_rev =
                            match Hashtbl.find_opt t.revoked_wire l.l_worker with
                            | Some r -> r
                            | None ->
                                let r = ref [] in
                                Hashtbl.replace t.revoked_wire l.l_worker r;
                                r
                          in
                          pending_rev := qid :: !pending_rev
                      | _ -> ());
                      Work_queue.requeue t.queue ~id:qid;
                      Work_queue.cancel t.queue ~id:qid;
                      Hashtbl.remove t.leased_tasks qid;
                      Hashtbl.remove t.entry_client qid;
                      Hashtbl.remove t.inflight key_s;
                      incr revoked_n;
                      if Events.active () then
                        Events.emit ~severity:Events.Warn
                          "service.lease_revoked"
                          [
                            ("task", Json.Int qid);
                            ("worker", Json.String l.l_worker);
                            ("alpha", Json.Float l.l_cell.Experiment.alpha);
                            ("k", Json.Int l.l_cell.Experiment.k);
                          ]
                  | Some _ -> ())
            end)
    job.keys;
  (!released, !revoked_n)

let cancel t ~job =
  locked t (fun () ->
      t.n_requests <- t.n_requests + 1;
      Ncg_fault.Inject.(hit service_cancel);
      match Hashtbl.find_opt t.jobs job with
      | None -> Error (Printf.sprintf "unknown job %d" job)
      | Some j when j.state <> Running ->
          Error
            (Printf.sprintf "job %d is already %s" job
               (job_state_string j.state))
      | Some j ->
          j.state <- Cancelled;
          let released, revoked = detach_job t j ~revoke:true in
          t.n_cancels <- t.n_cancels + 1;
          Metrics.(incr service_cancels);
          if Events.active () then
            Events.emit ~severity:Events.Warn "service.cancel"
              [
                ("job", Json.Int j.id);
                ("client", Json.String j.client);
                ("released", Json.Int released);
                ("revoked", Json.Int revoked);
              ];
          Ok (released, revoked))

(* --- Deadlines and the heartbeat monitor --------------------------------- *)

(* Reclaim every lease a heartbeat-silent worker holds — the same
   durable requeue path [Work_queue.openfile] uses for orphans, so disk
   and memory cannot diverge — and count the expiry as a strike against
   the worker. Silent workers holding nothing are merely suspected. *)
let expire_silent_workers t now =
  List.iter
    (fun name ->
      let ids = Work_queue.reclaim t.queue ~worker:name in
      if ids = [] then
        note_transition t name (Worker_pool.suspect t.pool ~name)
      else begin
        List.iter
          (fun id ->
            t.n_lease_expiries <- t.n_lease_expiries + 1;
            Metrics.(incr service_lease_expiries);
            match Hashtbl.find_opt t.leased_tasks id with
            | Some l ->
                Hashtbl.remove t.leased_tasks id;
                if Events.active () then
                  Events.emit ~severity:Events.Warn "service.lease_expired"
                    [
                      ("task", Json.Int id);
                      ("worker", Json.String name);
                      ("alpha", Json.Float l.l_cell.Experiment.alpha);
                      ("k", Json.Int l.l_cell.Experiment.k);
                    ]
            | None ->
                if Events.active () then
                  Events.emit ~severity:Events.Warn "service.lease_expired"
                    [ ("task", Json.Int id); ("worker", Json.String name) ])
          ids;
        note_transition t name (Worker_pool.note_expiry t.pool ~name ~now)
      end)
    (Worker_pool.stale t.pool ~now)

let tick t =
  locked t (fun () ->
      let now = Ncg_obs.Clock.now_ns () in
      (Hashtbl.iter [@lint.allow "D3" "per-job expiry is order-independent"])
        (fun _ job ->
          match (job.state, job.deadline_ns) with
          | Running, Some deadline when Int64.compare now deadline > 0 ->
              job.state <- Expired;
              if Events.active () then
                Events.emit ~severity:Events.Warn "service.job_expired"
                  [
                    ("job", Json.Int job.id);
                    ("client", Json.String job.client);
                    ("remaining", Json.Int job.remaining);
                  ];
              (* Release queued cells nobody else waits for. *)
              ignore (detach_job t job ~revoke:false)
          | _ -> ())
        t.jobs;
      expire_silent_workers t now)

let idle t =
  locked t (fun () ->
      Work_queue.pending t.queue = 0
      && Work_queue.leased t.queue = 0
      && (Hashtbl.fold [@lint.allow "D3" "conjunction is order-independent"])
           (fun _ job acc -> acc && job.state <> Running)
           t.jobs true)

let stats_fields t =
  locked t (fun () ->
      let count state =
        (Hashtbl.fold [@lint.allow "D3" "order-independent counting"])
          (fun _ j acc -> if j.state = state then acc + 1 else acc)
          t.jobs 0
      in
      [
        ( "jobs",
          Json.Obj
            [
              ("running", Json.Int (count Running));
              ("done", Json.Int (count Done));
              ("expired", Json.Int (count Expired));
              ("cancelled", Json.Int (count Cancelled));
            ] );
        ("queue", Work_queue.stats_to_json t.queue);
        ("store", Store.stats_to_json (Store.stats t.store));
        ("workers", Worker_pool.stats_to_json t.pool);
        ( "counters",
          Json.Obj
            [
              ("requests", Json.Int t.n_requests);
              ("cache_hits", Json.Int t.n_cache_hits);
              ("dedup_hits", Json.Int t.n_dedup_hits);
              ("completions", Json.Int t.n_completions);
              ("requeues", Json.Int t.n_requeues);
              ("quarantines", Json.Int t.n_quarantines);
              ("heartbeats", Json.Int t.n_heartbeats);
              ("lease_expiries", Json.Int t.n_lease_expiries);
              ("worker_quarantines", Json.Int t.n_worker_quarantines);
              ("cancels", Json.Int t.n_cancels);
            ] );
      ])
