type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_repr x =
  if Float.is_nan x || Float.abs x = Float.infinity then "null"
  else begin
    (* Shortest representation that round-trips and is valid JSON. *)
    let s = Printf.sprintf "%.17g" x in
    let shorter = Printf.sprintf "%.12g" x in
    let s = if float_of_string shorter = x then shorter else s in
    if String.contains s '.' || String.contains s 'e' || String.contains s 'n'
    then s
    else s ^ ".0"
  end

let rec emit ~indent buf level t =
  let pad l = if indent then Buffer.add_string buf (String.make (2 * l) ' ') in
  let nl () = if indent then Buffer.add_char buf '\n' in
  match t with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float x -> Buffer.add_string buf (float_repr x)
  | String s -> escape buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
      Buffer.add_char buf '[';
      nl ();
      List.iteri
        (fun i item ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            nl ()
          end;
          pad (level + 1);
          emit ~indent buf (level + 1) item)
        items;
      nl ();
      pad level;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_char buf '{';
      nl ();
      List.iteri
        (fun i (key, value) ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            nl ()
          end;
          pad (level + 1);
          escape buf key;
          Buffer.add_string buf (if indent then ": " else ":");
          emit ~indent buf (level + 1) value)
        fields;
      nl ();
      pad level;
      Buffer.add_char buf '}'

let to_string t =
  let buf = Buffer.create 256 in
  emit ~indent:false buf 0 t;
  Buffer.contents buf

let to_string_pretty t =
  let buf = Buffer.create 256 in
  emit ~indent:true buf 0 t;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* Atomic write (temp file + fsync + rename): a crash at any point
   leaves either the old file or the new one. *)
let to_file path t = Atomic_file.write path (to_string_pretty t)

(* --- Parsing --------------------------------------------------------------- *)

(* Recursive-descent parser for the full JSON grammar (RFC 8259). Used by
   the store, ncg_report and ncg_bench_diff to read back what the
   emitters above produce, and by tests to validate it, without an
   external JSON dependency. Numbers with '.', 'e' or 'E' parse as
   Float, others as Int (falling back to Float on overflow). *)

exception Parse_failure of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_failure (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let expect c =
    match peek () with
    | Some x when x = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let skip_ws () =
    while
      !pos < n && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let literal word value =
    String.iter expect word;
    value
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match s.[!pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad hex digit in \\u escape"
      in
      v := (!v * 16) + d;
      advance ()
    done;
    !v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (if !pos >= n then fail "unterminated escape";
           match s.[!pos] with
           | '"' -> Buffer.add_char buf '"'; advance ()
           | '\\' -> Buffer.add_char buf '\\'; advance ()
           | '/' -> Buffer.add_char buf '/'; advance ()
           | 'b' -> Buffer.add_char buf '\b'; advance ()
           | 'f' -> Buffer.add_char buf '\012'; advance ()
           | 'n' -> Buffer.add_char buf '\n'; advance ()
           | 'r' -> Buffer.add_char buf '\r'; advance ()
           | 't' -> Buffer.add_char buf '\t'; advance ()
           | 'u' ->
               advance ();
               let cp = hex4 () in
               let cp =
                 if cp >= 0xD800 && cp <= 0xDBFF then begin
                   (* High surrogate: must pair with a low one. *)
                   if
                     !pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
                   then begin
                     advance ();
                     advance ();
                     let lo = hex4 () in
                     if lo < 0xDC00 || lo > 0xDFFF then fail "bad low surrogate";
                     0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
                   end
                   else fail "unpaired high surrogate"
                 end
                 else if cp >= 0xDC00 && cp <= 0xDFFF then
                   fail "unpaired low surrogate"
                 else cp
               in
               if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
               else Buffer.add_utf_8_uchar buf (Uchar.of_int cp)
           | _ -> fail "unknown escape");
          go ()
      | c when Char.code c < 0x20 -> fail "raw control character in string"
      | c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
      | _ -> false
    do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    let is_float =
      String.exists (function '.' | 'e' | 'E' -> true | _ -> false) text
    in
    if is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail "malformed number"
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> fail "malformed number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let value = parse_value () in
            fields := (key, value) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); members ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          members ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [] in
          let rec elements () =
            let value = parse_value () in
            items := value :: !items;
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); elements ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          elements ();
          List (List.rev !items)
        end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_failure msg -> Error msg
  | exception e ->
      (* Belt and braces: of_string promises to never raise, whatever
         bytes arrive (the qcheck fuzz tests hold it to that). *)
      Error (Printf.sprintf "unexpected parser failure: %s" (Printexc.to_string e))

(* --- Decoding ------------------------------------------------------------- *)

type segment = Key of string | Index of int

(* Raised by the accessors below with the path from the value handed to
   the accessor down to the failing value, outermost segment first;
   caught only by [decode] and [opt]. *)
exception Decode_error of segment list * string

let fail fmt = Printf.ksprintf (fun reason -> raise (Decode_error ([], reason))) fmt

let within seg f x =
  try f x with Decode_error (path, reason) -> raise (Decode_error (seg :: path, reason))

let render_path path =
  let buf = Buffer.create 32 in
  List.iter
    (function
      | Key k ->
          if Buffer.length buf > 0 then Buffer.add_char buf '.';
          Buffer.add_string buf k
      | Index i -> Buffer.add_string buf (Printf.sprintf "[%d]" i))
    path;
  Buffer.contents buf

let decode ~what f j =
  match f j with
  | v -> Ok v
  | exception Decode_error ([], reason) -> Error (what ^ ": " ^ reason)
  | exception Decode_error (path, reason) ->
      Error (Printf.sprintf "%s: %s: %s" what (render_path path) reason)

let opt f j = try Some (f j) with Decode_error _ -> None

let nested f j = match f j with Ok v -> v | Error msg -> fail "%s" msg

let int = function Int i -> i | _ -> fail "expected an int"
let bool = function Bool b -> b | _ -> fail "expected a bool"
let string = function String s -> s | _ -> fail "expected a string"

let number = function
  | Float f -> f
  | Int i -> float_of_int i
  | _ -> fail "expected a number"

let number_or_null = function Null -> Float.nan | j -> number j

let list f = function
  | List items -> List.mapi (fun i item -> within (Index i) f item) items
  | _ -> fail "expected a list"

let assoc f = function
  | Obj fields -> List.map (fun (k, v) -> (k, within (Key k) f v)) fields
  | _ -> fail "expected an object"

let field_opt name f = function
  | Obj fields -> Option.map (within (Key name) f) (List.assoc_opt name fields)
  | _ -> fail "expected an object"

let field name f j =
  match field_opt name f j with
  | Some v -> v
  | None -> raise (Decode_error ([ Key name ], "missing"))

let schema expected =
  field "schema" (fun j ->
      let s = string j in
      if not (String.equal s expected) then fail "expected %S, got %S" expected s)

let of_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents -> Result.map_error (fun msg -> path ^ ": " ^ msg) (of_string contents)
