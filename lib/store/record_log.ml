(* Append-only CRC-framed record log. See the mli for the frame layout
   and recovery contract. Implemented directly over Unix file
   descriptors: recovery needs ftruncate, and appends must be a single
   write followed by fsync. *)

let magic = "NCGLOG01"
let header_len = String.length magic
let frame_header_len = 8 (* u32 length + u32 crc *)
let max_payload = 64 * 1024 * 1024

type t = {
  fd : Unix.file_descr;
  log_path : string;
  sync_on_append : bool;
  mutable pos : int; (* current end of the valid log == append offset *)
  mutable closed : bool;
  mutable poisoned : bool; (* a failed append left an unknown tail on disk *)
}

type recovery = { replayed : int; dropped_bytes : int }

(* [read_exact fd buf] fills [buf] or returns the number of bytes that
   were available — short reads at EOF are how the scan detects a torn
   tail frame. *)
let read_available fd buf =
  let len = Bytes.length buf in
  let rec go off =
    if off = len then off
    else
      match Unix.read fd buf off (len - off) with
      | 0 -> off
      | n -> go (off + n)
  in
  go 0

let write_all fd buf =
  let len = Bytes.length buf in
  let rec go off =
    if off < len then go (off + Unix.write fd buf off (len - off))
  in
  go 0

let u32_le_of_bytes buf off = Int32.to_int (Bytes.get_int32_le buf off) land 0xFFFFFFFF

let frame payload =
  let len = String.length payload in
  let buf = Bytes.create (frame_header_len + len) in
  Bytes.set_int32_le buf 0 (Int32.of_int len);
  Bytes.set_int32_le buf 4 (Int32.of_int (Crc32.digest payload));
  Bytes.blit_string payload 0 buf frame_header_len len;
  buf

let openfile ?(sync = true) log_path ~replay =
  let fd = Unix.openfile log_path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  match
    let file_size = (Unix.fstat fd).Unix.st_size in
    if file_size = 0 then begin
      write_all fd (Bytes.of_string magic);
      if sync then Unix.fsync fd;
      ({ fd; log_path; sync_on_append = sync; pos = header_len; closed = false; poisoned = false },
       { replayed = 0; dropped_bytes = 0 })
    end
    else begin
      (* Validate the magic. A file shorter than the header that is a
         prefix of the magic is a torn initial write — reset it; anything
         else is not ours. *)
      let head = Bytes.create (min file_size header_len) in
      let got = read_available fd head in
      let head = Bytes.sub_string head 0 got in
      if head <> String.sub magic 0 got then
        raise
          (Sys_error
             (Printf.sprintf "%s: not a record log (bad magic)" log_path));
      if got < header_len then begin
        ignore (Unix.lseek fd 0 Unix.SEEK_SET);
        Unix.ftruncate fd 0;
        write_all fd (Bytes.of_string magic);
        if sync then Unix.fsync fd;
        ({ fd; log_path; sync_on_append = sync; pos = header_len; closed = false; poisoned = false },
         { replayed = 0; dropped_bytes = file_size })
      end
      else begin
        (* Scan: replay valid records, stop at the first bad frame. *)
        let replayed = ref 0 in
        let good_end = ref header_len in
        let frame_header = Bytes.create frame_header_len in
        let continue = ref true in
        while !continue do
          if read_available fd frame_header < frame_header_len then
            continue := false
          else begin
            let len = u32_le_of_bytes frame_header 0 in
            let crc = u32_le_of_bytes frame_header 4 in
            if len > max_payload || !good_end + frame_header_len + len > file_size
            then continue := false
            else begin
              let payload = Bytes.create len in
              if read_available fd payload < len then continue := false
              else begin
                let payload = Bytes.unsafe_to_string payload in
                if Crc32.digest payload <> crc then continue := false
                else begin
                  replay payload;
                  incr replayed;
                  good_end := !good_end + frame_header_len + len
                end
              end
            end
          end
        done;
        let dropped = file_size - !good_end in
        if dropped > 0 then Unix.ftruncate fd !good_end;
        ignore (Unix.lseek fd !good_end Unix.SEEK_SET);
        ({ fd; log_path; sync_on_append = sync; pos = !good_end; closed = false; poisoned = false },
         { replayed = !replayed; dropped_bytes = dropped })
      end
    end
  with
  | result -> result
  | exception e ->
      Unix.close fd;
      raise e

let append ?torn_at t payload =
  if t.closed then invalid_arg "Record_log.append: closed";
  if t.poisoned then
    invalid_arg
      "Record_log.append: handle poisoned by an earlier failed append; \
       reopen to recover";
  if String.length payload > max_payload then
    invalid_arg "Record_log.append: payload exceeds max_payload";
  let buf = frame payload in
  match torn_at with
  | Some cut ->
      (* Test hook: leave a real torn frame on disk — the same state a
         crash mid-write leaves — and poison the handle so later appends
         cannot land after the torn tail. *)
      t.poisoned <- true;
      write_all t.fd (Bytes.sub buf 0 (max 0 (min cut (Bytes.length buf - 1))));
      if t.sync_on_append then Unix.fsync t.fd;
      failwith "Record_log.append: torn write (test hook)"
  | None -> (
      match write_all t.fd buf with
      | () ->
          if t.sync_on_append then Unix.fsync t.fd;
          t.pos <- t.pos + Bytes.length buf
      | exception e ->
          t.poisoned <- true;
          raise e)

let sync t = if not t.closed then Unix.fsync t.fd
let poisoned t = t.poisoned
let path t = t.log_path
let size t = t.pos

let close t =
  if not t.closed then begin
    t.closed <- true;
    Unix.close t.fd
  end
