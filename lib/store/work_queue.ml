module Json = Ncg_obs.Json

type status =
  | Pending of { attempts : int }
  | Leased of { attempts : int; worker : string }
  | Completed
  | Cancelled

type entry = { id : int; payload : string; attempts : int }

type recovery = { replayed : int; dropped_bytes : int; reclaimed : int }

type t = {
  mutable log : Record_log.t;
  payloads : (int, string) Hashtbl.t; (* id -> payload, live entries only *)
  state : (int, status) Hashtbl.t;
  mutable next_id : int;
  mutable n_pending : int;
  mutable n_leased : int;
  mutable n_completed : int;
  mutable n_cancelled : int;
}

(* Records are one compact JSON object each: debuggable with any JSONL
   tool, and the payload rides along only on the enqueue record. *)
let rec_enqueue id payload =
  Json.to_string
    (Json.Obj
       [
         ("op", Json.String "enqueue");
         ("id", Json.Int id);
         ("payload", Json.String payload);
       ])

let rec_op op id extra =
  Json.to_string (Json.Obj ([ ("op", Json.String op); ("id", Json.Int id) ] @ extra))

let apply t op id payload worker =
  match op with
  | "enqueue" ->
      Hashtbl.replace t.payloads id payload;
      Hashtbl.replace t.state id (Pending { attempts = 1 });
      if id >= t.next_id then t.next_id <- id + 1
  | "lease" -> (
      match Hashtbl.find_opt t.state id with
      | Some (Pending { attempts }) ->
          Hashtbl.replace t.state id (Leased { attempts; worker })
      | _ -> ())
  | "complete" ->
      Hashtbl.replace t.state id Completed;
      Hashtbl.remove t.payloads id
  | "requeue" -> (
      match Hashtbl.find_opt t.state id with
      | Some (Leased { attempts; _ }) ->
          Hashtbl.replace t.state id (Pending { attempts = attempts + 1 })
      | _ -> ())
  | "cancel" -> (
      match Hashtbl.find_opt t.state id with
      | Some (Pending _) ->
          Hashtbl.replace t.state id Cancelled;
          Hashtbl.remove t.payloads id
      | _ -> ())
  | _ -> () (* unknown op from a future version: skip, keep folding *)

let replay_record t payload =
  let record j =
    let text name = Option.value (Json.opt (Json.field name Json.string) j) ~default:"" in
    let op = Json.field "op" Json.string j in
    (op, Json.field "id" Json.int j, text "payload", text "worker")
  in
  match Result.map (Json.opt record) (Json.of_string payload) with
  | Ok (Some (op, id, pl, worker)) -> apply t op id pl worker
  | Ok None | Error _ -> ()

let recount t =
  t.n_pending <- 0;
  t.n_leased <- 0;
  t.n_completed <- 0;
  t.n_cancelled <- 0;
  (Hashtbl.iter [@lint.allow "D3" "order-independent counting"])
    (fun _ s ->
      match s with
      | Pending _ -> t.n_pending <- t.n_pending + 1
      | Leased _ -> t.n_leased <- t.n_leased + 1
      | Completed -> t.n_completed <- t.n_completed + 1
      | Cancelled -> t.n_cancelled <- t.n_cancelled + 1)
    t.state

(* Durable batch requeue shared by [openfile]'s orphan pass and the
   runtime [reclaim]: one requeue record per id, appended in id order so
   a replay of the log reproduces exactly the live transitions. Callers
   recount afterwards. *)
let reclaim_ids t ids =
  let ids = List.sort compare ids in
  List.iter
    (fun id ->
      Record_log.append t.log (rec_op "requeue" id []);
      apply t "requeue" id "" "")
    ids;
  ids

let openfile ?(sync = true) path =
  (* Buffer the raw records during the log scan, then fold them into the
     fresh handle: the replay callback runs before [t] can exist. *)
  let raw = ref [] in
  let log, { Record_log.replayed; dropped_bytes } =
    Record_log.openfile ~sync path ~replay:(fun payload -> raw := payload :: !raw)
  in
  let t =
    {
      log;
      payloads = Hashtbl.create 64;
      state = Hashtbl.create 64;
      next_id = 0;
      n_pending = 0;
      n_leased = 0;
      n_completed = 0;
      n_cancelled = 0;
    }
  in
  List.iter (replay_record t) (List.rev !raw);
  (* Orphaned leases: the previous daemon (or its worker) died with the
     entry in flight. Revert to pending, durably, so a subsequent crash
     before the first fresh lease does not resurrect the lease. *)
  let orphans = ref [] in
  (Hashtbl.iter [@lint.allow "D3" "sorted before use"])
    (fun id s -> match s with Leased _ -> orphans := id :: !orphans | _ -> ())
    t.state;
  let orphans = reclaim_ids t !orphans in
  recount t;
  (t, { replayed; dropped_bytes; reclaimed = List.length orphans })

let enqueue t ~payload =
  let id = t.next_id in
  Record_log.append t.log (rec_enqueue id payload);
  apply t "enqueue" id payload "";
  t.n_pending <- t.n_pending + 1;
  Ncg_obs.Metrics.(incr queue_enqueues);
  id

(* Oldest pending id: a linear scan over the live table. Queue depth is
   bounded by in-flight cells (thousands at most), and the daemon holds
   its scheduler mutex across this anyway. *)
let oldest_pending t =
  (Hashtbl.fold [@lint.allow "D3" "min is order-independent"])
    (fun id s best ->
      match s with
      | Pending _ -> ( match best with Some b when b <= id -> best | _ -> Some id)
      | _ -> best)
    t.state None

let grant t ~worker ~id =
  match Hashtbl.find_opt t.state id with
  | Some (Pending { attempts }) ->
      Record_log.append t.log (rec_op "lease" id [ ("worker", Json.String worker) ]);
      apply t "lease" id "" worker;
      t.n_pending <- t.n_pending - 1;
      t.n_leased <- t.n_leased + 1;
      Ncg_obs.Metrics.(incr queue_leases);
      Some { id; payload = Hashtbl.find t.payloads id; attempts }
  | _ -> None

let lease t ~worker =
  Ncg_fault.Inject.(hit queue_lease);
  match oldest_pending t with
  | None -> None
  | Some id -> grant t ~worker ~id

let lease_id t ~worker ~id =
  Ncg_fault.Inject.(hit queue_lease);
  grant t ~worker ~id

let complete t ~id =
  match Hashtbl.find_opt t.state id with
  | Some (Leased _) ->
      Record_log.append t.log (rec_op "complete" id []);
      apply t "complete" id "" "";
      t.n_leased <- t.n_leased - 1;
      t.n_completed <- t.n_completed + 1
  | _ -> invalid_arg (Printf.sprintf "Work_queue.complete: entry %d is not leased" id)

let requeue t ~id =
  match Hashtbl.find_opt t.state id with
  | Some (Leased _) ->
      Record_log.append t.log (rec_op "requeue" id []);
      apply t "requeue" id "" "";
      t.n_leased <- t.n_leased - 1;
      t.n_pending <- t.n_pending + 1
  | _ -> invalid_arg (Printf.sprintf "Work_queue.requeue: entry %d is not leased" id)

let cancel t ~id =
  match Hashtbl.find_opt t.state id with
  | Some (Pending _) ->
      Record_log.append t.log (rec_op "cancel" id []);
      apply t "cancel" id "" "";
      t.n_pending <- t.n_pending - 1;
      t.n_cancelled <- t.n_cancelled + 1
  | _ -> ()

let pending_entries t =
  (Hashtbl.fold [@lint.allow "D3" "sorted before return"])
    (fun id s acc ->
      match s with Pending { attempts } -> (id, attempts) :: acc | _ -> acc)
    t.state []
  |> List.sort compare
  |> List.map (fun (id, attempts) ->
         { id; payload = Hashtbl.find t.payloads id; attempts })

let leases_of t ~worker =
  (Hashtbl.fold [@lint.allow "D3" "sorted before return"])
    (fun id s acc ->
      match s with
      | Leased { worker = w; _ } when String.equal w worker -> id :: acc
      | _ -> acc)
    t.state []
  |> List.sort compare

let reclaim t ~worker =
  let ids = reclaim_ids t (leases_of t ~worker) in
  recount t;
  ids

let pending t = t.n_pending
let leased t = t.n_leased
let completed t = t.n_completed
let cancelled t = t.n_cancelled

let attempts t ~id =
  match Hashtbl.find_opt t.state id with
  | Some (Pending { attempts } | Leased { attempts; _ }) -> attempts
  | Some (Completed | Cancelled) | None -> raise Not_found

let close t = Record_log.close t.log

let stats_to_json t =
  Json.Obj
    [
      ("pending", Json.Int t.n_pending);
      ("leased", Json.Int t.n_leased);
      ("completed", Json.Int t.n_completed);
      ("cancelled", Json.Int t.n_cancelled);
    ]
