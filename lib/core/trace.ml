type move = { round : int; player : int; before : int list; after : int list }
type t = { n : int; moves : move list }

let empty n = { n; moves = [] }
let length t = List.length t.moves

let replay initial t =
  if Strategy.n_players initial <> t.n then
    invalid_arg "Trace.replay: player count mismatch";
  List.fold_left
    (fun s m ->
      if Strategy.owned s m.player <> m.before then
        invalid_arg "Trace.replay: move does not match the profile state";
      Strategy.with_owned s m.player m.after)
    initial t.moves

let ints_to_string xs = String.concat " " (List.map string_of_int xs)

let to_string t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (string_of_int t.n);
  Buffer.add_char buf '\n';
  List.iter
    (fun m ->
      Buffer.add_string buf
        (Printf.sprintf "%d %d | %s | %s\n" m.round m.player
           (ints_to_string m.before) (ints_to_string m.after)))
    t.moves;
  Buffer.contents buf

let parse_ints s =
  String.split_on_char ' ' (String.trim s)
  |> List.filter (fun tok -> tok <> "")
  |> List.map (fun tok ->
         match int_of_string_opt tok with
         | Some v -> v
         | None -> invalid_arg "Trace.of_string: bad integer")

let of_string s =
  match String.split_on_char '\n' s with
  | [] | [ "" ] -> invalid_arg "Trace.of_string: empty input"
  | header :: body -> begin
      match int_of_string_opt (String.trim header) with
      | None -> invalid_arg "Trace.of_string: bad player count"
      | Some n ->
          let moves =
            List.filter_map
              (fun line ->
                if String.trim line = "" then None
                else begin
                  match String.split_on_char '|' line with
                  | [ head; before; after ] -> begin
                      match parse_ints head with
                      | [ round; player ] ->
                          Some
                            {
                              round;
                              player;
                              before = parse_ints before;
                              after = parse_ints after;
                            }
                      | _ -> invalid_arg "Trace.of_string: bad move header"
                    end
                  | _ -> invalid_arg "Trace.of_string: bad move line"
                end)
              body
          in
          { n; moves }
    end
