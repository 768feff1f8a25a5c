(* Tests for the crash-safe result store: CRC-32, record framing and
   torn-tail recovery, content-addressed cache keys, supersede +
   last-write-wins replay, and resuming an interrupted sweep from the store. *)

module Crc32 = Ncg_store.Crc32
module Record_log = Ncg_store.Record_log
module Cache_key = Ncg_store.Cache_key
module Store = Ncg_store.Store
module Experiment = Ncg.Experiment
module Sweep_spec = Ncg.Sweep_spec
module Json = Ncg_obs.Json

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let with_temp_dir f =
  let dir = Filename.temp_file "ncg_store_test" "" in
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

let write_file path s =
  (Out_channel.with_open_bin
  [@lint.allow "A1" "deliberately non-atomic: crafts torn/corrupt store fixtures"])
    path
    (fun oc -> Out_channel.output_string oc s)

(* --- Crc32 ---------------------------------------------------------------- *)

let test_crc32_vectors () =
  (* The standard check value for the IEEE/zlib polynomial. *)
  check_int "123456789" 0xCBF43926 (Crc32.digest "123456789");
  check_int "empty" 0 (Crc32.digest "");
  check_int "single NUL" (Crc32.digest "\x00") (Crc32.digest_sub "a\x00b" ~pos:1 ~len:1);
  check_bool "order matters" true (Crc32.digest "ab" <> Crc32.digest "ba")

let test_crc32_incremental () =
  let whole = "the quick brown fox jumps over the lazy dog" in
  let split i =
    let a = String.sub whole 0 i and b = String.sub whole i (String.length whole - i) in
    Crc32.finalize (Crc32.update (Crc32.update Crc32.empty a) b)
  in
  for i = 0 to String.length whole do
    check_int (Printf.sprintf "split at %d" i) (Crc32.digest whole) (split i)
  done;
  check_int "digest_sub = digest of sub"
    (Crc32.digest (String.sub whole 4 9))
    (Crc32.digest_sub whole ~pos:4 ~len:9)

(* --- Record_log ----------------------------------------------------------- *)

let payloads =
  [ "alpha"; ""; "binary \x00\x01\xff payload"; String.make 3000 'x'; "tail" ]

let open_collecting ?sync path =
  let seen = ref [] in
  let log, recovery = Record_log.openfile ?sync path ~replay:(fun p -> seen := p :: !seen) in
  (log, recovery, List.rev !seen)

let test_log_roundtrip () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "log" in
      let log, recovery, seen = open_collecting path in
      check_int "fresh: nothing replayed" 0 recovery.Record_log.replayed;
      check_int "fresh: nothing dropped" 0 recovery.Record_log.dropped_bytes;
      check_int "fresh: no records" 0 (List.length seen);
      List.iter (Record_log.append log) payloads;
      let size = Record_log.size log in
      check_int "size = header + frames" size
        (8 + List.fold_left (fun acc p -> acc + 8 + String.length p) 0 payloads);
      Record_log.close log;
      let log, recovery, seen = open_collecting path in
      check_int "replayed all" (List.length payloads) recovery.Record_log.replayed;
      check_int "dropped nothing" 0 recovery.Record_log.dropped_bytes;
      check_bool "contents and order preserved" true (seen = payloads);
      check_int "size preserved" size (Record_log.size log);
      Record_log.close log)

let test_log_torn_tail_all_offsets () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "log" in
      let log, _, _ = open_collecting path in
      List.iter (Record_log.append log) payloads;
      Record_log.close log;
      let full = read_file path in
      (* End offset of each complete record, in order. *)
      let ends =
        List.rev
          (List.fold_left
             (fun acc p ->
               let prev = match acc with [] -> 8 | e :: _ -> e in
               (prev + 8 + String.length p) :: acc)
             [] payloads)
      in
      let torn = Filename.concat dir "torn" in
      for offset = 0 to String.length full do
        write_file torn (String.sub full 0 offset);
        let log, recovery, seen = open_collecting torn in
        let expected = List.filter (fun e -> e <= offset) ends in
        check_int
          (Printf.sprintf "offset %d: longest valid prefix" offset)
          (List.length expected) recovery.Record_log.replayed;
        check_bool
          (Printf.sprintf "offset %d: recovered contents" offset)
          true
          (seen = List.filteri (fun i _ -> i < List.length expected) payloads);
        (* A torn magic (offset < 8) is reset wholesale: every byte drops. *)
        let good_end =
          if offset < 8 then 0
          else match List.rev expected with e :: _ -> e | [] -> 8
        in
        check_int
          (Printf.sprintf "offset %d: dropped tail" offset)
          (offset - good_end) recovery.Record_log.dropped_bytes;
        (* The repaired log accepts appends and replays them next open. *)
        Record_log.append log "after recovery";
        Record_log.close log;
        let log, recovery, seen = open_collecting torn in
        check_int
          (Printf.sprintf "offset %d: reopen after repair+append" offset)
          (List.length expected + 1)
          recovery.Record_log.replayed;
        check_bool
          (Printf.sprintf "offset %d: appended record last" offset)
          true
          (List.nth seen (List.length seen - 1) = "after recovery");
        Record_log.close log
      done)

let test_log_corrupt_byte () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "log" in
      let log, _, _ = open_collecting path in
      List.iter (Record_log.append log) [ "first"; "second"; "third" ];
      Record_log.close log;
      let full = read_file path in
      (* Flip one byte inside "second"'s payload: recovery keeps "first",
         drops everything from the corrupt record on. *)
      let corrupt_at = 8 + 8 + 5 + 8 + 2 in
      let b = Bytes.of_string full in
      Bytes.set b corrupt_at (Char.chr (Char.code (Bytes.get b corrupt_at) lxor 0xFF));
      write_file path (Bytes.to_string b);
      let log, recovery, seen = open_collecting path in
      check_int "only the prefix survives" 1 recovery.Record_log.replayed;
      check_bool "prefix content" true (seen = [ "first" ]);
      check_bool "corrupt tail truncated" true (recovery.Record_log.dropped_bytes > 0);
      Record_log.close log)

let test_log_rejects_foreign_file () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "not_a_log" in
      write_file path "GARBAGE FILE, definitely not a record log";
      (match Record_log.openfile path ~replay:(fun _ -> ()) with
      | exception Sys_error _ -> ()
      | log, _ ->
          Record_log.close log;
          Alcotest.fail "opened a non-log file");
      check_bool "file untouched" true
        (read_file path = "GARBAGE FILE, definitely not a record log"))

(* --- Cache_key ------------------------------------------------------------ *)

let test_cache_key () =
  let k = Cache_key.make [ ("class", Json.String "tree"); ("n", Json.Int 12) ] in
  check_string "canonical form"
    (Printf.sprintf "{\"store_schema\":%d,\"class\":\"tree\",\"n\":12}"
       Cache_key.schema_version)
    (Cache_key.to_string k);
  let k' = Cache_key.make [ ("class", Json.String "tree"); ("n", Json.Int 12) ] in
  check_bool "equal" true (Cache_key.equal k k');
  check_int "compare" 0 (Cache_key.compare k k');
  let other = Cache_key.make [ ("class", Json.String "tree"); ("n", Json.Int 13) ] in
  check_bool "field change changes key" false (Cache_key.equal k other);
  check_bool "field change changes fingerprint" true
    (Cache_key.fingerprint k <> Cache_key.fingerprint other);
  let hex = Cache_key.fingerprint_hex k in
  check_int "hex fingerprint: 16 digits" 16 (String.length hex);
  check_bool "hex fingerprint: lowercase hex" true
    (String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) hex);
  check_string "hex matches fingerprint"
    (Printf.sprintf "%016Lx" (Cache_key.fingerprint k))
    hex

(* --- Store ---------------------------------------------------------------- *)

let key i = Cache_key.make [ ("cell", Json.Int i) ]

let test_store_basic () =
  with_temp_dir (fun dir ->
      Store.with_dir dir (fun s ->
          check_bool "miss before insert" true (Store.lookup s (key 1) = None);
          check_bool "mem false" false (Store.mem s (key 1));
          Store.insert s (key 1) "one";
          Store.insert s (key 2) "two";
          check_bool "hit" true (Store.lookup s (key 1) = Some "one");
          check_bool "mem true" true (Store.mem s (key 1));
          check_int "live" 2 (Store.live_count s);
          (* Re-insert supersedes: last write wins. *)
          Store.insert s (key 1) "one v2";
          check_bool "latest wins" true (Store.lookup s (key 1) = Some "one v2");
          check_int "still 2 live" 2 (Store.live_count s);
          let st = Store.stats s in
          check_int "hits" 2 st.Store.hits;
          check_int "misses" 1 st.Store.misses;
          check_int "inserts" 3 st.Store.inserts;
          check_int "superseded" 1 st.Store.superseded);
      (* Everything survives a reopen, including last-write-wins. *)
      Store.with_dir dir (fun s ->
          let st = Store.stats s in
          check_int "replayed all records" 3 st.Store.replayed;
          check_int "superseded recomputed" 1 st.Store.superseded;
          check_int "live after reopen" 2 (Store.live_count s);
          check_bool "latest wins after reopen" true
            (Store.lookup s (key 1) = Some "one v2");
          check_bool "other key intact" true (Store.lookup s (key 2) = Some "two")))

let test_store_truncated_log_recovers () =
  with_temp_dir (fun dir ->
      Store.with_dir dir (fun s ->
          for i = 1 to 5 do
            Store.insert s (key i) (Printf.sprintf "payload %d" i)
          done);
      let log_path = Filename.concat dir "records.log" in
      let full = read_file log_path in
      (* Chop mid-way through the last record: the first four survive. *)
      write_file log_path (String.sub full 0 (String.length full - 3));
      Store.with_dir dir (fun s ->
          let st = Store.stats s in
          check_int "four records recovered" 4 st.Store.replayed;
          check_bool "torn bytes dropped" true (st.Store.dropped_bytes > 0);
          for i = 1 to 4 do
            check_bool
              (Printf.sprintf "key %d intact" i)
              true
              (Store.lookup s (key i) = Some (Printf.sprintf "payload %d" i))
          done;
          check_bool "torn record gone" true (Store.lookup s (key 5) = None);
          (* The store keeps working: the lost cell can be re-inserted. *)
          Store.insert s (key 5) "payload 5 again");
      Store.with_dir dir (fun s ->
          check_bool "re-inserted record persisted" true
            (Store.lookup s (key 5) = Some "payload 5 again")))

(* --- Sweep integration: cache round-trip and crash resume ----------------- *)

let fixture =
  {
    Sweep_spec.default with
    n = 10;
    trials = 2;
    alphas = [ 0.5; 2.0 ];
    ks = [ 2; 1000 ];
  }

let fixture_cells = Sweep_spec.cells fixture

(* The fixture's results in cell order; a quarantine fails the test. *)
let sweep_fixture ?store ~domains () =
  List.map
    (function
      | Ok (r : Experiment.cell_result) -> r
      | Error (f : Experiment.cell_failure) ->
          Alcotest.failf "cell %d quarantined" f.Experiment.index)
    (Sweep_spec.sweep ~domains ?store fixture)

(* The deterministic projection of a cell result — what must be identical
   between a fresh and a resumed sweep for any domain count (timing
   fields are excluded, as in the engine's own determinism contract). *)
let check_same_cells what a b =
  check_int (what ^ ": same length") (List.length a) (List.length b);
  List.iter2
    (fun (x : Experiment.cell_result) (y : Experiment.cell_result) ->
      let tag fmt =
        Printf.sprintf "%s: cell (%g,%d) %s" what x.Experiment.cell.Experiment.alpha
          x.Experiment.cell.Experiment.k fmt
      in
      check_bool (tag "cell") true (x.Experiment.cell = y.Experiment.cell);
      (* compare, not (=): run_stats can hold NaN (e.g. unfairness). *)
      check_bool (tag "runs") true (compare x.Experiment.runs y.Experiment.runs = 0);
      check_bool (tag "counters") true (x.Experiment.counters = y.Experiment.counters);
      check_bool (tag "histogram counts") true
        (Ncg_obs.Histogram.counts_only x.Experiment.histograms
        = Ncg_obs.Histogram.counts_only y.Experiment.histograms);
      check_bool (tag "gc allocated words") true
        (Ncg_obs.Gc_stats.allocated_words x.Experiment.gc
        = Ncg_obs.Gc_stats.allocated_words y.Experiment.gc))
    a b

let test_cell_result_codec_roundtrip () =
  let results = sweep_fixture ~domains:1 () in
  List.iter
    (fun (r : Experiment.cell_result) ->
      match Experiment.cell_result_of_json (Experiment.cell_result_to_json r) with
      | Error e -> Alcotest.fail ("codec round-trip failed: " ^ e)
      | Ok r' ->
          (* Lossless: every field restores, including timing telemetry. *)
          check_bool "bit-identical round-trip" true (compare r r' = 0))
    results;
  (* The JSON text itself round-trips through the parser. *)
  let r = List.hd results in
  let text = Json.to_string (Experiment.cell_result_to_json r) in
  (match Json.of_string text with
  | Ok j -> check_bool "parsed back equal" true (Ok j = Ok (Experiment.cell_result_to_json r))
  | Error e -> Alcotest.fail ("serialized cell unparseable: " ^ e));
  (* Schema drift reads as an error, not a wrong result. *)
  match Experiment.cell_result_of_json (Json.Obj [ ("schema", Json.String "bogus/9") ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a foreign schema"

let test_sweep_store_roundtrip () =
  let reference = sweep_fixture ~domains:1 () in
  with_temp_dir (fun dir ->
      let populated =
        Store.with_dir dir (fun store ->
            let r = sweep_fixture ~store ~domains:2 () in
            let st = Store.stats store in
            check_int "first pass: all misses" (List.length fixture_cells)
              st.Store.misses;
            check_int "first pass: all inserted" (List.length fixture_cells)
              st.Store.inserts;
            r)
      in
      check_same_cells "populate vs plain" reference populated;
      let cached =
        Store.with_dir dir (fun store ->
            let r = sweep_fixture ~store ~domains:1 () in
            let st = Store.stats store in
            check_int "second pass: all hits" (List.length fixture_cells) st.Store.hits;
            check_int "second pass: no misses" 0 st.Store.misses;
            r)
      in
      (* A cache hit restores the stored cell exactly — wall times, span
         tree, domain id and all (compare: NaN-tolerant). *)
      check_bool "cached pass restores populate results verbatim" true
        (compare populated cached = 0))

(* The key [sweep_fixture] files [cell] under. *)
let fixture_key = Sweep_spec.cache_key fixture

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

let test_bad_record_is_a_miss () =
  let reference = sweep_fixture ~domains:1 () in
  let cells = List.length fixture_cells in
  with_temp_dir (fun dir ->
      Store.with_dir dir (fun store ->
          List.iter
            (fun (r : Experiment.cell_result) ->
              let key = fixture_key r.Experiment.cell in
              let bad = with_probe_capacity_1 (Experiment.cell_result_to_json r) in
              Store.insert store key (Json.to_string bad);
              check_bool "undecodable record reads as a miss" true
                (Experiment.store_lookup store key = None))
            reference;
          let recomputed = sweep_fixture ~store ~domains:1 () in
          check_same_cells "recompute = plain sweep" reference recomputed;
          let st = Store.stats store in
          check_int "every cell recomputed and inserted" (2 * cells) st.Store.inserts;
          check_int "recomputes supersede the bad records" cells st.Store.superseded;
          List.iter
            (fun (r : Experiment.cell_result) ->
              check_bool "the superseding record decodes" true
                (match Experiment.store_lookup store (fixture_key r.Experiment.cell) with
                | Some cached -> compare cached r = 0
                | None -> false))
            recomputed))

let test_sweep_resume_after_kill () =
  let reference = sweep_fixture ~domains:1 () in
  with_temp_dir (fun dir ->
      ignore (Store.with_dir dir (fun store -> sweep_fixture ~store ~domains:1 ()));
      let log_path = Filename.concat dir "records.log" in
      let full = read_file log_path in
      (* Simulate SIGKILL mid-append at several arbitrary byte offsets:
         keep a prefix of the log, resume, and require results identical
         to the uninterrupted sweep for any domain count. *)
      let offsets =
        [ 8; (String.length full / 3) + 1; String.length full - 1 ]
      in
      List.iter
        (fun offset ->
          List.iter
            (fun domains ->
              write_file log_path (String.sub full 0 offset);
              let resumed, hits, misses =
                Store.with_dir dir (fun store ->
                    let r = sweep_fixture ~store ~domains () in
                    let st = Store.stats store in
                    (r, st.Store.hits, st.Store.misses))
              in
              let tag fmt =
                Printf.sprintf "offset %d, %d domains: %s" offset domains fmt
              in
              check_same_cells (tag "resume = uninterrupted") reference resumed;
              check_int (tag "every cell hit or recomputed")
                (List.length fixture_cells) (hits + misses);
              check_bool (tag "truncation lost at least one cell") true (misses >= 1);
              (* Restore the full log for the next offset/domain combo. *)
              write_file log_path full)
            [ 1; 2 ])
        offsets)

(* Every cell of [spec] as (cell, CSV row), swept the way
   [ncg_experiment --store] sweeps it. *)
let spec_rows ?store spec =
  Sweep_spec.sweep ?store spec
  |> List.map (function
       | Ok (r : Experiment.cell_result) ->
           (r.Experiment.cell, Sweep_spec.csv_row spec r)
       | Error (f : Experiment.cell_failure) ->
           Alcotest.failf "cell %d quarantined" f.Experiment.index)

let test_overlapping_stored_sweeps () =
  (* Two sweeps run one after the other against one store: the second
     overlaps the first on the k = 3 column, finds those three cells in
     the store, and the rows of both together are a one-shot sweep of
     the union grid. *)
  let base =
    { Sweep_spec.default with n = 12; trials = 2; alphas = [ 0.5; 1.0; 2.0 ] }
  in
  let first = { base with ks = [ 2; 3 ] } and second = { base with ks = [ 3; 1000 ] } in
  with_temp_dir (fun dir ->
      let sweep spec check =
        Store.with_dir dir (fun store ->
            let rows = spec_rows ~store spec in
            check (Store.stats store);
            rows)
      in
      let rows_first =
        sweep first (fun st ->
            check_int "first sweep: no hits" 0 st.Store.hits;
            check_int "first sweep: six inserted" 6 st.Store.inserts)
      in
      let rows_second =
        sweep second (fun st ->
            check_int "second sweep: three hits" 3 st.Store.hits;
            check_int "second sweep: three misses" 3 st.Store.misses;
            check_int "store: nine live records" 9 st.Store.live)
      in
      let sorted rows = List.map snd (List.sort_uniq compare rows) in
      Alcotest.(check (list string))
        "union of both sweeps = one-shot sweep of the union grid"
        (sorted (spec_rows { base with ks = [ 2; 3; 1000 ] }))
        (sorted (rows_first @ rows_second)))

(* --- Torn writes and healing ------------------------------------------------ *)

(* A short write (Record_log.append's [torn_at] test hook) into the
   [i]-th of [n] appends must poison the handle, leave a genuinely torn
   frame on disk, and cost exactly that one record on reopen — for every
   victim index. *)
let prop_log_short_write_recovers =
  QCheck.Test.make ~name:"short write loses exactly the torn record" ~count:100
    QCheck.(
      triple (int_range 1 8) (int_range 0 7)
        (small_list (string_gen Gen.(map Char.chr (int_range 0 255)))))
    (fun (n, victim_ix, extra) ->
      let victim_ix = victim_ix mod n in
      let payloads =
        List.init n (fun i -> Printf.sprintf "record-%d-%s" i (String.make i 'x'))
        @ extra
      in
      let payloads = List.filteri (fun i _ -> i < n) payloads in
      with_temp_dir (fun dir ->
          let path = Filename.concat dir "log" in
          let log, _, _ = open_collecting path in
          let survivors = ref [] in
          let faulted = ref false in
          List.iteri
            (fun i p ->
              if not !faulted then
                let torn_at = if i = victim_ix then Some 3 else None in
                match Record_log.append ?torn_at log p with
                | () -> survivors := p :: !survivors
                | exception Failure _ ->
                    faulted := true;
                    check_int "victim" victim_ix i;
                    check_bool "poisoned" true (Record_log.poisoned log);
                    (* Poisoned handles refuse further appends. *)
                    (match Record_log.append log "after" with
                    | () -> Alcotest.fail "append on poisoned handle"
                    | exception Invalid_argument _ -> ()))
            payloads;
          Record_log.close log;
          (* Reopen: the torn frame is truncated, every append that
             returned cleanly is replayed, and the handle works again. *)
          let log, recovery, seen = open_collecting path in
          check_int "replayed" victim_ix recovery.Record_log.replayed;
          check_bool "torn bytes dropped" true (recovery.Record_log.dropped_bytes > 0);
          check_bool "survivors replayed" true (seen = List.rev !survivors);
          Record_log.append log "fresh";
          Record_log.close log;
          let _, recovery, seen = open_collecting path in
          check_int "fresh append recovered" (victim_ix + 1)
            recovery.Record_log.replayed;
          check_bool "tail is the fresh record" true
            (List.nth seen victim_ix = "fresh");
          true))

let test_store_heals_after_failed_insert () =
  with_temp_dir (fun dir ->
      let key tag = Cache_key.make [ ("t", Json.String tag) ] in
      Store.with_dir dir (fun store ->
          (* Insert a (clean), b (torn after 6 bytes), c (clean): the
             store heals in place, so only b is lost. *)
          Store.insert store (key "a") "payload-a";
          (match Store.insert ~torn_at:6 store (key "b") "payload-b" with
          | () -> Alcotest.fail "insert should fail"
          | exception Failure _ -> ());
          Store.insert store (key "c") "payload-c";
          check_bool "a" true (Store.lookup store (key "a") = Some "payload-a");
          check_bool "b lost" true (Store.lookup store (key "b") = None);
          check_bool "c" true (Store.lookup store (key "c") = Some "payload-c");
          check_int "healed once" 1 (Store.stats store).Store.heals);
      (* The on-disk log holds exactly the records whose insert returned. *)
      Store.with_dir dir (fun store ->
          check_int "replayed" 2 (Store.stats store).Store.replayed;
          check_bool "a persisted" true
            (Store.lookup store (key "a") = Some "payload-a");
          check_bool "c persisted" true
            (Store.lookup store (key "c") = Some "payload-c")))

(* --- Advisory store lock -------------------------------------------------- *)

let test_store_lock_excludes_second_open () =
  with_temp_dir (fun dir ->
      let store = Store.open_dir dir in
      Fun.protect
        ~finally:(fun () -> Store.close store)
        (fun () ->
          match Store.open_dir dir with
          | _ -> Alcotest.fail "second open should raise Locked"
          | exception Store.Locked { pid; _ } ->
              check_int "holder is this process" (Unix.getpid ()) pid);
      (* close released the lock: reopening works. *)
      Store.with_dir dir (fun _ -> ()))

let test_store_lock_stale_is_swept () =
  with_temp_dir (fun dir ->
      (* A LOCK file left by a dead process (a reaped child) must not
         block an open, whatever it contains. *)
      let dead_pid =
        match Unix.fork () with
        | 0 -> Unix._exit 0
        | pid ->
            ignore (Unix.waitpid [] pid);
            pid
      in
      List.iter
        (fun contents ->
          write_file (Filename.concat dir "LOCK") contents;
          Store.with_dir dir (fun _ -> ()))
        [ Printf.sprintf "%d\n" dead_pid; "not a pid\n"; "" ])

let test_store_lock_takeover_race () =
  (* N processes race Store.open_dir against the same stale lock file.
     The kernel lock must elect exactly one winner; the rest report
     Locked (never a second acquisition, never a crash). The winner
     holds its lock until every contender has decided, so no loser can
     retry against a released lock. A lost race is rare per round, so
     run many rounds, each in a fresh directory. *)
  let n = 6 in
  let round () =
    with_temp_dir (fun dir ->
        let dead_pid =
          match Unix.fork () with
          | 0 -> Unix._exit 0
          | pid ->
              ignore (Unix.waitpid [] pid);
              pid
        in
        write_file (Filename.concat dir "LOCK") (Printf.sprintf "%d\n" dead_pid);
        let go = Filename.concat dir "go" in
        let results = Filename.concat dir "results" in
        Unix.mkdir results 0o755;
        let child () =
          while not (Sys.file_exists go) do
            Unix.sleepf 0.001
          done;
          let outcome, cleanup =
            match Store.open_dir dir with
            | store -> ("won", fun () -> Store.close store)
            | exception Store.Locked _ -> ("locked", fun () -> ())
            | exception _ -> ("crashed", fun () -> ())
          in
          write_file
            (Filename.concat results (string_of_int (Unix.getpid ())))
            outcome;
          while Array.length (Sys.readdir results) < n do
            Unix.sleepf 0.001
          done;
          cleanup ();
          Unix._exit 0
        in
        let pids =
          List.init n (fun _ ->
              match Unix.fork () with 0 -> child () | pid -> pid)
        in
        write_file go "";
        List.iter (fun pid -> ignore (Unix.waitpid [] pid)) pids;
        let outcomes =
          List.map
            (fun f -> read_file (Filename.concat results f))
            (Array.to_list (Sys.readdir results))
        in
        let count o = List.length (List.filter (String.equal o) outcomes) in
        check_int "every contender reported" n (List.length outcomes);
        check_int "exactly one winner" 1 (count "won");
        check_int "everyone else saw Locked" (n - 1) (count "locked");
        (* The winner released on exit. *)
        Store.with_dir dir (fun _ -> ()))
  in
  for _ = 1 to 20 do
    round ()
  done

let () =
  Alcotest.run "store"
    [
      ( "crc32",
        [
          Alcotest.test_case "known vectors" `Quick test_crc32_vectors;
          Alcotest.test_case "incremental" `Quick test_crc32_incremental;
        ] );
      ( "record_log",
        [
          Alcotest.test_case "round-trip" `Quick test_log_roundtrip;
          Alcotest.test_case "torn tail at every offset" `Quick
            test_log_torn_tail_all_offsets;
          Alcotest.test_case "corrupt byte" `Quick test_log_corrupt_byte;
          Alcotest.test_case "rejects foreign files" `Quick
            test_log_rejects_foreign_file;
          QCheck_alcotest.to_alcotest prop_log_short_write_recovers;
        ] );
      ( "cache_key",
        [ Alcotest.test_case "canonical form + fingerprint" `Quick test_cache_key ] );
      ( "store",
        [
          Alcotest.test_case "insert/lookup/supersede" `Quick test_store_basic;
          Alcotest.test_case "truncated log recovers" `Quick
            test_store_truncated_log_recovers;
          Alcotest.test_case "heals after failed insert" `Quick
            test_store_heals_after_failed_insert;
          Alcotest.test_case "lock excludes second open" `Quick
            test_store_lock_excludes_second_open;
          Alcotest.test_case "stale lock is swept" `Quick
            test_store_lock_stale_is_swept;
          Alcotest.test_case "contending openers elect one winner" `Quick
            test_store_lock_takeover_race;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "cell codec round-trip" `Quick
            test_cell_result_codec_roundtrip;
          Alcotest.test_case "store round-trip" `Quick test_sweep_store_roundtrip;
          Alcotest.test_case "resume after kill" `Quick test_sweep_resume_after_kill;
          Alcotest.test_case "undecodable record is a miss" `Quick
            test_bad_record_is_a_miss;
          Alcotest.test_case "overlapping stored sweeps = union sweep" `Quick
            test_overlapping_stored_sweeps;
        ] );
    ]
