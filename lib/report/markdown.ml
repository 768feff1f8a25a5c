type t = Buffer.t

let create () = Buffer.create 1024

let blank_line t =
  let len = Buffer.length t in
  if len > 0 && Buffer.nth t (len - 1) <> '\n' then Buffer.add_char t '\n';
  Buffer.add_char t '\n'

let heading t level text =
  let level = max 1 (min 6 level) in
  blank_line t;
  Buffer.add_string t (String.make level '#');
  Buffer.add_char t ' ';
  Buffer.add_string t text;
  Buffer.add_char t '\n'

let paragraph t text =
  blank_line t;
  Buffer.add_string t text;
  Buffer.add_char t '\n'

let escape_cell cell =
  String.concat "\\|" (String.split_on_char '|' cell)

let table t ~header rows =
  let width = List.length header in
  let pad row =
    let len = List.length row in
    if len >= width then List.filteri (fun i _ -> i < width) row
    else row @ List.init (width - len) (fun _ -> "")
  in
  let emit_row cells =
    Buffer.add_string t "| ";
    Buffer.add_string t (String.concat " | " (List.map escape_cell cells));
    Buffer.add_string t " |\n"
  in
  blank_line t;
  emit_row header;
  emit_row (List.map (fun _ -> "---") header);
  List.iter (fun row -> emit_row (pad row)) rows

let code_block ?lang t text =
  (* A fence strictly longer than any backtick run inside the text. *)
  let longest_backtick_run =
    let best = ref 0 and current = ref 0 in
    String.iter
      (fun c ->
        if c = '`' then begin
          incr current;
          if !current > !best then best := !current
        end
        else current := 0)
      text;
    !best
  in
  let fence = String.make (max 3 (longest_backtick_run + 1)) '`' in
  blank_line t;
  Buffer.add_string t fence;
  (match lang with Some l -> Buffer.add_string t l | None -> ());
  Buffer.add_char t '\n';
  Buffer.add_string t text;
  if text = "" || text.[String.length text - 1] <> '\n' then Buffer.add_char t '\n';
  Buffer.add_string t fence;
  Buffer.add_char t '\n'

let to_string t = Buffer.contents t
