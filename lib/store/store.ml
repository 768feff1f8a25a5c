module Json = Ncg_obs.Json
module Metrics = Ncg_obs.Metrics

(* Registered at module init from the main domain (the Metrics
   contract); linking ncg_store is enough to make these visible. *)
let m_hits = Metrics.register "store.hits"
let m_misses = Metrics.register "store.misses"
let m_inserts = Metrics.register "store.inserts"
let m_heals = Metrics.register "store.heals"

let records_name = "records.log"
let lock_name = "LOCK"

exception Locked of { dir : string; pid : int }

let () =
  Printexc.register_printer (function
    | Locked { dir; pid } ->
        Some
          (Printf.sprintf "Ncg_store.Store.Locked(store %S is in use by pid %d)"
             dir pid)
    | _ -> None)

(* Advisory lock: a kernel (fcntl) lock on DIR/LOCK, taken with
   [Unix.lockf F_TLOCK] through an fd that [t] keeps open until [close].
   The kernel elects exactly one holder among racing openers and drops
   the lock when its holder exits or is killed, so there is no stale
   lock to sweep. The file also holds the holder's PID, read only to
   fill in [Locked].

   fcntl locks never conflict within one process, and closing any fd on
   the file drops the process's lock. So this process also tracks the
   directories it holds, by (device, inode), and refuses a second open
   before touching the file. *)
let held : (int * int) list Atomic.t = Atomic.make []

let rec hold key =
  let cur = Atomic.get held in
  (not (List.mem key cur))
  && (Atomic.compare_and_set held cur (key :: cur) || hold key)

let rec unhold key =
  let cur = Atomic.get held in
  if not (Atomic.compare_and_set held cur (List.filter (( <> ) key) cur)) then
    unhold key

let release_lock (fd, key) =
  Unix.close fd;
  unhold key

let acquire_lock dir =
  let st = Unix.stat dir in
  let key = (st.Unix.st_dev, st.Unix.st_ino) in
  if not (hold key) then raise (Locked { dir; pid = Unix.getpid () });
  let fd =
    try
      Unix.openfile (Filename.concat dir lock_name)
        [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o644
    with e ->
      unhold key;
      raise e
  in
  match Unix.lockf fd Unix.F_TLOCK 0 with
  | () -> (
      let pid = string_of_int (Unix.getpid ()) ^ "\n" in
      try
        Unix.ftruncate fd 0;
        ignore (Unix.write_substring fd pid 0 (String.length pid));
        (fd, key)
      with e ->
        release_lock (fd, key);
        raise e)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EACCES), _, _) ->
      let contents =
        Fun.protect
          ~finally:(fun () -> release_lock (fd, key))
          (fun () ->
            let buf = Bytes.create 64 in
            Bytes.sub_string buf 0 (Unix.read fd buf 0 64))
      in
      let pid =
        Option.value ~default:(-1) (int_of_string_opt (String.trim contents))
      in
      raise (Locked { dir; pid })
  | exception e ->
      release_lock (fd, key);
      raise e

type t = {
  dir : string;
  sync : bool;
  lock : Unix.file_descr * (int * int); (* held LOCK fd, directory key *)
  mutable log : Record_log.t;
  index : (string, string) Hashtbl.t; (* canonical key -> latest payload *)
  mutex : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable inserts : int;
  mutable superseded : int; (* dead records currently in the log *)
  mutable replayed : int;
  mutable dropped_bytes : int;
  mutable heals : int; (* log reopens after a failed append *)
  mutable closed : bool;
}

type stats = {
  hits : int;
  misses : int;
  inserts : int;
  superseded : int;
  live : int;
  replayed : int;
  dropped_bytes : int;
  heals : int;
}

(* Record payload layout: u32 LE key length, key bytes, value bytes.
   The Record_log CRC covers the whole payload, key included. *)
let encode_record key value =
  let klen = String.length key in
  let buf = Bytes.create (4 + klen + String.length value) in
  Bytes.set_int32_le buf 0 (Int32.of_int klen);
  Bytes.blit_string key 0 buf 4 klen;
  Bytes.blit_string value 0 buf (4 + klen) (String.length value);
  Bytes.unsafe_to_string buf

let decode_record payload =
  if String.length payload < 4 then None
  else begin
    let klen = Int32.to_int (String.get_int32_le payload 0) land 0xFFFFFFFF in
    if klen < 0 || 4 + klen > String.length payload then None
    else
      Some
        ( String.sub payload 4 klen,
          String.sub payload (4 + klen) (String.length payload - 4 - klen) )
  end

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let open_dir ?(sync = true) dir =
  mkdir_p dir;
  let lock = acquire_lock dir in
  match
  let index = Hashtbl.create 64 in
  let superseded = ref 0 in
  let replay payload =
    match decode_record payload with
    | None -> () (* valid frame, unintelligible payload: skip, keep scanning *)
    | Some (key, value) ->
        if Hashtbl.mem index key then incr superseded;
        Hashtbl.replace index key value
  in
  let log, { Record_log.replayed; dropped_bytes } =
    Record_log.openfile ~sync (Filename.concat dir records_name) ~replay
  in
  let t =
    {
      dir;
      sync;
      lock;
      log;
      index;
      mutex = Mutex.create ();
      hits = 0;
      misses = 0;
      inserts = 0;
      superseded = !superseded;
      replayed;
      dropped_bytes;
      heals = 0;
      closed = false;
    }
  in
  t
  with
  | t -> t
  | exception e ->
      release_lock lock;
      raise e

let check_open t = if t.closed then invalid_arg "Ncg_store.Store: closed"

let lookup t key =
  Mutex.protect t.mutex (fun () ->
      check_open t;
      match Hashtbl.find_opt t.index (Cache_key.to_string key) with
      | Some payload ->
          t.hits <- t.hits + 1;
          Metrics.incr m_hits;
          Some payload
      | None ->
          t.misses <- t.misses + 1;
          Metrics.incr m_misses;
          None)

let mem t key =
  Mutex.protect t.mutex (fun () ->
      check_open t;
      Hashtbl.mem t.index (Cache_key.to_string key))

(* A failed append (a write error, or the [torn_at] test hook) leaves a
   torn frame on disk and a poisoned log handle. Reopen the log in place:
   recovery truncates the tail back to the last complete record, and the
   in-memory index is still exact because it is only updated after a
   successful append — so the failure costs one record, not the store. *)
let heal_log t =
  (try Record_log.close t.log with _ -> ());
  let log, _ =
    Record_log.openfile ~sync:t.sync
      (Filename.concat t.dir records_name)
      ~replay:ignore
  in
  t.log <- log;
  t.heals <- t.heals + 1;
  Metrics.incr m_heals

let insert ?torn_at t key payload =
  Mutex.protect t.mutex (fun () ->
      check_open t;
      let key = Cache_key.to_string key in
      (match Record_log.append ?torn_at t.log (encode_record key payload) with
      | () -> ()
      | exception e ->
          heal_log t;
          raise e);
      if Hashtbl.mem t.index key then t.superseded <- t.superseded + 1;
      Hashtbl.replace t.index key payload;
      t.inserts <- t.inserts + 1;
      Metrics.incr m_inserts)

let live_count t = Mutex.protect t.mutex (fun () -> Hashtbl.length t.index)
let log_size t = Mutex.protect t.mutex (fun () -> Record_log.size t.log)

let stats t =
  Mutex.protect t.mutex (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        inserts = t.inserts;
        superseded = t.superseded;
        live = Hashtbl.length t.index;
        replayed = t.replayed;
        dropped_bytes = t.dropped_bytes;
        heals = t.heals;
      })

let close t =
  Mutex.protect t.mutex (fun () ->
      if not t.closed then begin
        Record_log.close t.log;
        release_lock t.lock;
        t.closed <- true
      end)

let with_dir ?sync dir f =
  let t = open_dir ?sync dir in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

let stats_to_json s =
  Json.Obj
    [
      ("hits", Json.Int s.hits);
      ("misses", Json.Int s.misses);
      ("inserts", Json.Int s.inserts);
      ("superseded", Json.Int s.superseded);
      ("live", Json.Int s.live);
      ("replayed", Json.Int s.replayed);
      ("dropped_bytes", Json.Int s.dropped_bytes);
      ("heals", Json.Int s.heals);
    ]
